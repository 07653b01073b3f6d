// Package baseline implements the comparison systems of §8 as one
// tuple-at-a-time SQL engine over the simulated Parquet/ORC-like formats,
// with per-system "personality" knobs modelling the differences the paper
// attributes the performance gap to:
//
//   - value-at-a-time decoding of generally-compressed chunks (all flavors);
//   - row-at-a-time expression interpretation (batch size 1 for Impala- and
//     Hive-like, small batches for HAWQ/SparkSQL-like, which the paper finds
//     "a bit faster than the other competitors");
//   - MinMax usage: none for Impala-like ("does not do MinMax skipping at
//     all"), stats-after-read for the Parquet-based flavors, footer-based
//     IO skipping for the ORC-based Hive-like flavor;
//   - Hive-like is the only flavor accepting updates, which it serves by
//     merging delta lists into every subsequent scan — the §8 GeoDiff
//     degradation.
//
// The engine executes the exact same logical plans (plan.Node) as VectorH,
// so result sets are comparable row for row.
package baseline

import (
	"fmt"
	"sort"

	"vectorh/internal/expr"
	"vectorh/internal/hadoopfmt"
	"vectorh/internal/hdfs"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// Flavor selects a personality.
type Flavor string

// The four evaluated systems.
const (
	HAWQ     Flavor = "hawq"
	SparkSQL Flavor = "sparksql"
	Impala   Flavor = "impala"
	Hive     Flavor = "hive"
)

type props struct {
	kind      hadoopfmt.Kind
	skip      hadoopfmt.SkipMode
	batchRows int
	updatable bool
}

func flavorProps(f Flavor) props {
	switch f {
	case HAWQ:
		return props{kind: hadoopfmt.Parquet, skip: hadoopfmt.SkipCPU, batchRows: 64}
	case SparkSQL:
		return props{kind: hadoopfmt.Parquet, skip: hadoopfmt.SkipCPU, batchRows: 8}
	case Impala:
		return props{kind: hadoopfmt.Parquet, skip: hadoopfmt.NoSkip, batchRows: 1}
	default: // Hive
		return props{kind: hadoopfmt.ORC, skip: hadoopfmt.SkipIO, batchRows: 1, updatable: true}
	}
}

type storedTable struct {
	schema vector.Schema
	path   string
	// Hive-ACID-style deltas, merged into every scan.
	inserted [][]any
	deleted  map[int64]bool // first-column (surrogate key) values
}

// Engine is one baseline system instance.
type Engine struct {
	flavor Flavor
	p      props
	fs     *hdfs.Cluster
	tables map[string]*storedTable
}

// New creates a baseline engine of the given flavor over its own simulated
// single-node HDFS.
func New(flavor Flavor) *Engine {
	return &Engine{
		flavor: flavor,
		p:      flavorProps(flavor),
		fs:     hdfs.NewCluster([]string{"bn1"}, hdfs.Config{BlockSize: 1 << 20, Replication: 1}),
		tables: make(map[string]*storedTable),
	}
}

// Flavor returns the personality name.
func (e *Engine) Flavor() Flavor { return e.flavor }

// FS exposes the engine's HDFS for IO accounting.
func (e *Engine) FS() *hdfs.Cluster { return e.fs }

// Load writes a table into the engine's columnar format.
func (e *Engine) Load(name string, schema vector.Schema, b *vector.Batch) error {
	path := "/" + name + "." + e.p.kind.String()
	w, err := hadoopfmt.NewWriter(e.fs, path, "bn1", schema, hadoopfmt.Options{Kind: e.p.kind, RowGroupRows: 4096})
	if err != nil {
		return err
	}
	if err := w.Append(b); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	e.tables[name] = &storedTable{schema: schema, path: path, deleted: map[int64]bool{}}
	return nil
}

// InsertRows appends delta rows (Hive-like only).
func (e *Engine) InsertRows(name string, b *vector.Batch) error {
	if !e.p.updatable {
		return fmt.Errorf("baseline: %s does not support updates", e.flavor)
	}
	t, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("baseline: unknown table %q", name)
	}
	c := b.Compact()
	for i := 0; i < c.Len(); i++ {
		t.inserted = append(t.inserted, c.Row(i))
	}
	return nil
}

// DeleteByKey records key deletions in the delta (Hive-like only). Keys
// refer to the table's first column.
func (e *Engine) DeleteByKey(name string, keys []int64) error {
	if !e.p.updatable {
		return fmt.Errorf("baseline: %s does not support updates", e.flavor)
	}
	t, ok := e.tables[name]
	if !ok {
		return fmt.Errorf("baseline: unknown table %q", name)
	}
	for _, k := range keys {
		t.deleted[k] = true
	}
	return nil
}

// TableSchema implements plan.Catalog.
func (e *Engine) TableSchema(name string) (vector.Schema, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("baseline: unknown table %q", name)
	}
	return t.schema, nil
}

// relation is an intermediate result: materialized rows plus their schema.
type relation struct {
	schema vector.Schema
	rows   [][]any
}

// Query runs a logical plan — typically SQL compiled against this engine as
// its plan.Catalog — by interpreting it tuple at a time.
func (e *Engine) Query(q plan.Node) ([][]any, error) {
	rel, err := e.eval(q)
	if err != nil {
		return nil, err
	}
	return rel.rows, nil
}

func (e *Engine) eval(n plan.Node) (*relation, error) {
	switch n := n.(type) {
	case *plan.ScanNode:
		return e.evalScan(n, nil)
	case *plan.FilterNode:
		rel, err := e.evalFilterChild(n)
		if err != nil {
			return nil, err
		}
		return e.filterRel(rel, n.Pred)
	case *plan.ProjectNode:
		return e.evalProject(n)
	case *plan.JoinNode:
		return e.evalJoin(n)
	case *plan.AggregateNode:
		return e.evalAggregate(n)
	case *plan.OrderByNode:
		return e.evalOrderBy(n)
	case *plan.LimitNode:
		rel, err := e.eval(n.Child)
		if err != nil {
			return nil, err
		}
		if int64(len(rel.rows)) > n.N {
			rel.rows = rel.rows[:n.N]
		}
		return rel, nil
	default:
		return nil, fmt.Errorf("baseline: unsupported node %T", n)
	}
}

// evalFilterChild evaluates the input of a filter. A scan is handed the one
// range the ORC/Parquet readers understand: the first integer interval the
// filter's predicate implies — the bounds VectorH's own scans skip on.
func (e *Engine) evalFilterChild(n *plan.FilterNode) (*relation, error) {
	scan, ok := n.Child.(*plan.ScanNode)
	if !ok || e.p.skip == hadoopfmt.NoSkip {
		return e.eval(n.Child)
	}
	schema, err := scan.Schema(e)
	if err != nil {
		return nil, err
	}
	pred, err := n.Pred.Bind(schema)
	if err != nil {
		return nil, err
	}
	for _, b := range expr.Bounds(pred) {
		if b.Kind == vector.Int64 {
			return e.evalScan(scan, &hadoopfmt.RangePred{Col: schema[b.Col].Name, Lo: b.IntLo, Hi: b.IntHi})
		}
	}
	return e.evalScan(scan, nil)
}

func (e *Engine) evalScan(n *plan.ScanNode, pred *hadoopfmt.RangePred) (*relation, error) {
	t, ok := e.tables[n.Table]
	if !ok {
		return nil, fmt.Errorf("baseline: unknown table %q", n.Table)
	}
	cols := n.Cols
	if cols == nil {
		cols = t.schema.Names()
	}
	// Hidden columns: the skip-hint column must be read to evaluate chunk
	// statistics, and when deltas exist the table's key column (its first
	// schema column) must be read for the delete-set merge.
	hasDeltas := len(t.inserted) > 0 || len(t.deleted) > 0
	projCols := append([]string(nil), cols...)
	addHidden := func(name string) int {
		for i, c := range projCols {
			if c == name {
				return i
			}
		}
		projCols = append(projCols, name)
		return len(projCols) - 1
	}
	keyPos := -1
	if len(t.deleted) > 0 {
		keyPos = addHidden(t.schema[0].Name)
	}
	if pred != nil {
		addHidden(pred.Col)
	}
	r, err := hadoopfmt.Open(e.fs, t.path, "bn1")
	if err != nil {
		return nil, err
	}
	it, err := r.Scan(projCols, pred, e.p.skip)
	if err != nil {
		return nil, err
	}
	schema := make(vector.Schema, len(cols))
	for i, c := range cols {
		f, err := t.schema.Field(c)
		if err != nil {
			return nil, err
		}
		schema[i] = f
	}
	rel := &relation{schema: schema}
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		// Hive-style delta merge: every scan re-checks the delete set —
		// this is the per-scan cost behind the §8 GeoDiff.
		if keyPos >= 0 {
			if key, ok := row[keyPos].(int64); ok && t.deleted[key] {
				continue
			}
		}
		out := make([]any, len(cols))
		copy(out, row[:len(cols)])
		rel.rows = append(rel.rows, out)
	}
	// Delta inserts merged in (projected).
	if hasDeltas {
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = t.schema.Index(c)
		}
		for _, full := range t.inserted {
			out := make([]any, len(cols))
			for i, ix := range idx {
				out[i] = full[ix]
			}
			rel.rows = append(rel.rows, out)
		}
	}
	return rel, nil
}

// evalExprs evaluates bound expressions over rows in flavor-sized
// mini-batches (batch size 1 = genuine tuple-at-a-time interpretation).
func (e *Engine) evalExprs(rel *relation, exprs []plan.Expr) ([][]any, error) {
	bound := make([]expr.Expr, len(exprs))
	for i, pe := range exprs {
		be, err := pe.Bind(rel.schema)
		if err != nil {
			return nil, err
		}
		bound[i] = be
	}
	prog, err := expr.Compile(bound...)
	if err != nil {
		return nil, err
	}
	out := make([][]any, len(rel.rows))
	bs := e.p.batchRows
	for lo := 0; lo < len(rel.rows); lo += bs {
		hi := lo + bs
		if hi > len(rel.rows) {
			hi = len(rel.rows)
		}
		batch := vector.NewBatchForSchema(rel.schema, hi-lo)
		for _, row := range rel.rows[lo:hi] {
			batch.AppendRow(row...)
		}
		if err := prog.Run(batch); err != nil {
			return nil, err
		}
		for r := lo; r < hi; r++ {
			out[r] = make([]any, len(exprs))
			for c := range exprs {
				out[r][c] = prog.Out(c).Get(r - lo)
			}
		}
	}
	return out, nil
}

func (e *Engine) filterRel(rel *relation, pred plan.Expr) (*relation, error) {
	vals, err := e.evalExprs(rel, []plan.Expr{pred})
	if err != nil {
		return nil, err
	}
	out := &relation{schema: rel.schema}
	for i, row := range rel.rows {
		if b, ok := vals[i][0].(bool); ok && b {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func (e *Engine) evalProject(n *plan.ProjectNode) (*relation, error) {
	rel, err := e.eval(n.Child)
	if err != nil {
		return nil, err
	}
	exprs := make([]plan.Expr, len(n.Exprs))
	schema := make(vector.Schema, len(n.Exprs))
	for i, ne := range n.Exprs {
		exprs[i] = ne.Expr
		t, err := ne.Expr.Type(rel.schema)
		if err != nil {
			return nil, err
		}
		schema[i] = vector.Field{Name: ne.Name, Type: t}
	}
	rows, err := e.evalExprs(rel, exprs)
	if err != nil {
		return nil, err
	}
	return &relation{schema: schema, rows: rows}, nil
}

func keyString(row []any, idx []int) string {
	s := ""
	for _, i := range idx {
		s += fmt.Sprintf("%v\x00", row[i])
	}
	return s
}

func colIndexes(s vector.Schema, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.Index(n)
		if out[i] < 0 {
			return nil, fmt.Errorf("baseline: unknown column %q", n)
		}
	}
	return out, nil
}

func (e *Engine) evalJoin(n *plan.JoinNode) (*relation, error) {
	left, err := e.eval(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(n.Right)
	if err != nil {
		return nil, err
	}
	lk, err := colIndexes(left.schema, n.LeftKeys)
	if err != nil {
		return nil, err
	}
	rk, err := colIndexes(right.schema, n.RightKeys)
	if err != nil {
		return nil, err
	}
	table := make(map[string][][]any, len(right.rows))
	for _, row := range right.rows {
		k := keyString(row, rk)
		table[k] = append(table[k], row)
	}
	out := &relation{}
	switch n.Kind {
	case plan.SemiJoin, plan.AntiJoin:
		out.schema = left.schema
	case plan.LeftOuterJoin:
		out.schema = append(append(left.schema.Clone(), right.schema...),
			vector.Field{Name: plan.MatchedCol, Type: vector.TBool})
	default:
		out.schema = append(left.schema.Clone(), right.schema...)
	}
	for _, lrow := range left.rows {
		matches := table[keyString(lrow, lk)]
		switch n.Kind {
		case plan.SemiJoin:
			if len(matches) > 0 {
				out.rows = append(out.rows, lrow)
			}
		case plan.AntiJoin:
			if len(matches) == 0 {
				out.rows = append(out.rows, lrow)
			}
		case plan.LeftOuterJoin:
			if len(matches) == 0 {
				row := append(append([]any(nil), lrow...), zeroRow(right.schema)...)
				out.rows = append(out.rows, append(row, false))
			}
			for _, rrow := range matches {
				row := append(append([]any(nil), lrow...), rrow...)
				out.rows = append(out.rows, append(row, true))
			}
		default:
			for _, rrow := range matches {
				out.rows = append(out.rows, append(append([]any(nil), lrow...), rrow...))
			}
		}
	}
	if n.ExtraPred != nil {
		return e.filterRel(out, *n.ExtraPred)
	}
	return out, nil
}

func zeroRow(s vector.Schema) []any {
	out := make([]any, len(s))
	for i, f := range s {
		switch f.Type.Kind {
		case vector.Int32:
			out[i] = int32(0)
		case vector.Int64:
			out[i] = int64(0)
		case vector.Float64:
			out[i] = float64(0)
		case vector.String:
			out[i] = ""
		case vector.Bool:
			out[i] = false
		}
	}
	return out
}

type acc struct {
	f        float64
	i        int64
	s        string
	seen     bool
	count    int64
	distinct map[string]struct{}
}

func (e *Engine) evalAggregate(n *plan.AggregateNode) (*relation, error) {
	rel, err := e.eval(n.Child)
	if err != nil {
		return nil, err
	}
	schema, err := n.Schema(catalogAdapter{e})
	if err != nil {
		return nil, err
	}
	gIdx, err := colIndexes(rel.schema, n.GroupBy)
	if err != nil {
		return nil, err
	}
	var argExprs []plan.Expr
	argOf := make([]int, len(n.Aggs))
	for i, a := range n.Aggs {
		argOf[i] = -1
		if a.Func != plan.CountStar {
			argOf[i] = len(argExprs)
			argExprs = append(argExprs, a.Arg)
		}
	}
	args, err := e.evalExprs(rel, argExprs)
	if err != nil {
		return nil, err
	}
	groups := map[string]int{}
	var keys [][]any
	var accs [][]acc
	for ri, row := range rel.rows {
		k := keyString(row, gIdx)
		gi, ok := groups[k]
		if !ok {
			gi = len(keys)
			groups[k] = gi
			kv := make([]any, len(gIdx))
			for i, ix := range gIdx {
				kv[i] = row[ix]
			}
			keys = append(keys, kv)
			accs = append(accs, make([]acc, len(n.Aggs)))
		}
		for ai, a := range n.Aggs {
			st := &accs[gi][ai]
			var v any
			if argOf[ai] >= 0 {
				v = args[ri][argOf[ai]]
			}
			updateAcc(st, a.Func, v)
		}
	}
	if len(n.GroupBy) == 0 && len(keys) == 0 {
		keys = append(keys, []any{})
		accs = append(accs, make([]acc, len(n.Aggs)))
	}
	out := &relation{schema: schema}
	for gi, kv := range keys {
		row := append([]any(nil), kv...)
		for ai, a := range n.Aggs {
			row = append(row, finishAcc(&accs[gi][ai], a.Func, schema[len(gIdx)+ai].Type.Kind))
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

func updateAcc(st *acc, fn plan.AggFuncName, v any) {
	switch fn {
	case plan.CountStar, plan.Count:
		st.count++
	case plan.CountDistinct:
		if st.distinct == nil {
			st.distinct = map[string]struct{}{}
		}
		st.distinct[fmt.Sprintf("%v", v)] = struct{}{}
	case plan.Avg:
		st.f += toF(v)
		st.count++
	case plan.Sum:
		switch x := v.(type) {
		case float64:
			st.f += x
		case int64:
			st.i += x
		case int32:
			st.i += int64(x)
		}
	case plan.Min:
		if !st.seen || less(v, st) {
			setAcc(st, v)
		}
		st.seen = true
	case plan.Max:
		if !st.seen || greater(v, st) {
			setAcc(st, v)
		}
		st.seen = true
	}
}

func toF(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int32:
		return float64(x)
	}
	return 0
}

func setAcc(st *acc, v any) {
	switch x := v.(type) {
	case float64:
		st.f = x
	case int64:
		st.i = x
	case int32:
		st.i = int64(x)
	case string:
		st.s = x
	}
}

func less(v any, st *acc) bool {
	switch x := v.(type) {
	case float64:
		return x < st.f
	case int64:
		return x < st.i
	case int32:
		return int64(x) < st.i
	case string:
		return x < st.s
	}
	return false
}

func greater(v any, st *acc) bool {
	switch x := v.(type) {
	case float64:
		return x > st.f
	case int64:
		return x > st.i
	case int32:
		return int64(x) > st.i
	case string:
		return x > st.s
	}
	return false
}

func finishAcc(st *acc, fn plan.AggFuncName, kind vector.Kind) any {
	switch fn {
	case plan.Count, plan.CountStar:
		return st.count
	case plan.CountDistinct:
		return int64(len(st.distinct))
	case plan.Avg:
		if st.count == 0 {
			return float64(0)
		}
		return st.f / float64(st.count)
	default:
		if kind == vector.Float64 {
			return st.f
		}
		if kind == vector.String {
			return st.s
		}
		if kind == vector.Int32 { // min/max of an int32 or date keep its type
			return int32(st.i)
		}
		return st.i
	}
}

func (e *Engine) evalOrderBy(n *plan.OrderByNode) (*relation, error) {
	rel, err := e.eval(n.Child)
	if err != nil {
		return nil, err
	}
	keyExprs := make([]plan.Expr, len(n.Keys))
	for i, k := range n.Keys {
		keyExprs[i] = k.Expr
	}
	keyVals, err := e.evalExprs(rel, keyExprs)
	if err != nil {
		return nil, err
	}
	perm := make([]int, len(rel.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		for ki, k := range n.Keys {
			c := compareAny(keyVals[perm[x]][ki], keyVals[perm[y]][ki])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := &relation{schema: rel.schema}
	limit := len(perm)
	if n.Limit > 0 && int(n.Limit) < limit {
		limit = int(n.Limit)
	}
	for _, pi := range perm[:limit] {
		out.rows = append(out.rows, rel.rows[pi])
	}
	return out, nil
}

func compareAny(a, b any) int {
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		return cmp(x, y)
	case int32:
		y := b.(int32)
		return cmp(x, y)
	case float64:
		y := b.(float64)
		return cmp(x, y)
	case string:
		y := b.(string)
		return cmp(x, y)
	case bool:
		y := b.(bool)
		if x == y {
			return 0
		}
		if !x {
			return -1
		}
		return 1
	}
	return 0
}

func cmp[T int32 | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// catalogAdapter exposes the engine as a plan.Catalog.
type catalogAdapter struct{ e *Engine }

// TableSchema implements plan.Catalog.
func (c catalogAdapter) TableSchema(name string) (vector.Schema, error) {
	return c.e.TableSchema(name)
}
