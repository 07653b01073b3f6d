package rewriter

import (
	"fmt"
	"math"
	"slices"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/plan"
	"vectorh/internal/sql/joinorder"
	"vectorh/internal/vector"
)

// TableInfo is the physical-design metadata the rewriter consults.
type TableInfo struct {
	Name         string
	Schema       vector.Schema
	PartitionKey string // "" = replicated (non-partitioned)
	Partitions   int
	ClusteredOn  string // clustered-index column ("" = unordered)
}

// Catalog resolves physical table metadata, and the statistics the
// cardinality estimates read: a scan's is the table's live row count, a
// filter's its child's scaled by expr.Selectivity.
type Catalog interface {
	Table(name string) (TableInfo, error)
	plan.Stats
}

// Rules is a set of rewrite rules. The first three are the rules whose
// ablation §5 reports (5.02s with everything on; 26.14s with everything
// off); the last two are the scan-side rules whose off state is the
// reference path of the parity gates. Rules are only ever switched OFF — a
// Rules value names the disabled set, so the zero value runs everything.
type Rules uint8

// The rewrite rules.
const (
	// LocalJoin detects co-located partition-pair joins.
	LocalJoin Rules = 1 << iota
	// ReplicateBuild builds join hash tables locally from replicated tables,
	// and from build sides broadcast at run time where that moves fewer
	// bytes than repartitioning both sides of the join.
	ReplicateBuild
	// PartialAgg aggregates locally before exchanging.
	PartialAgg
	// ScanPushdown hands the predicate of a filter that sits directly on a
	// scan to the scan (ScanSpec.Filter): the scan skips blocks on the
	// intervals it implies, evaluates it over the predicate columns and
	// late-materializes the rest, and no Select is planned above it. Off, the
	// scan receives no predicate and reads every block, and the Select stays
	// — the parity gates' reference path.
	ScanPushdown
	// CompressedExec executes on compressed data (ScanSpec.Codes): scans serve
	// PDICT string blocks as dictionary-code vectors and decide spans against
	// block dictionaries and MinMax summaries before any unpack. Off, scans
	// materialize every string block and predicates run in value space.
	CompressedExec
)

// Options hold the topology and the disabled rewrite rules.
type Options struct {
	Nodes   int
	Threads int // exchange consumer threads per node
	Master  int // session-master node (final gather target)

	Disable Rules // rules switched off; zero = every rule on
}

// DefaultOptions enables every rewrite rule.
func DefaultOptions(nodes, threads int) Options {
	return Options{Nodes: nodes, Threads: threads}
}

// on reports whether rule is enabled.
func (o Options) on(rule Rules) bool { return o.Disable&rule == 0 }

// result carries a physical subtree plus its structural properties — the
// (partitioning, replication, gathered) properties of the paper's DP state.
type result struct {
	phys   Phys
	schema vector.Schema

	partitionedBy []string // output columns the streams are partitioned on
	partEq        []string // other columns equal on every row to a single partitionedBy column
	coPart        bool     // streams are table partitions (alignable 1:1)
	partCount     int      // partition count for coPart alignment
	replicated    bool     // every node holds a full copy (1 stream/node)
	gathered      bool     // single stream at the master
	orderedBy     []string // streams ordered on these columns, equal on every row (nil = no)
	rows          int64    // cardinality estimate
	maxRows       int64    // upper bound on rows no estimate can undercut; -1 = none (a join's output)
}

// partCols lists the columns the streams are partitioned on when that is one
// column: it and the columns equal to it.
func (r result) partCols() []string {
	if len(r.partitionedBy) != 1 {
		return nil
	}
	return append([]string{r.partitionedBy[0]}, r.partEq...)
}

type rewriteCtx struct {
	cat  Catalog
	opts Options
	est  map[Phys]int64 // cardinality estimate per lowered logical node
}

// Rewrite lowers a logical plan to a distributed physical plan whose root
// produces a single stream at the master node.
func Rewrite(n plan.Node, cat Catalog, opts Options) (Phys, error) {
	p, _, err := RewriteEst(n, cat, opts)
	return p, err
}

// RewriteEst is Rewrite plus the cost model's cardinality estimates, keyed
// by the physical node each logical node lowered to (exchanges and other
// glue nodes carry no estimate of their own). A filtered scan's estimate is
// the one the SQL join orderer ranked it by: the same row count times the
// same selectivity. ExplainEst renders them.
func RewriteEst(n plan.Node, cat Catalog, opts Options) (Phys, map[Phys]int64, error) {
	ctx := &rewriteCtx{cat: cat, opts: opts, est: make(map[Phys]int64)}
	r, err := ctx.rec(n)
	if err != nil {
		return nil, nil, err
	}
	g := ctx.gather(r)
	ctx.est[g.phys] = g.rows
	return g.phys, ctx.est, nil
}

// gather funnels a distributed result into one master stream.
func (c *rewriteCtx) gather(r result) result {
	if r.gathered {
		return r
	}
	if r.replicated {
		r.phys = &physOneNode{child: r.phys, node: c.opts.Master}
		r.replicated = false
		r.gathered = true
		return r
	}
	// The union interleaves the streams' batches in arrival order.
	r.phys = &physDXchgUnion{child: r.phys, node: c.opts.Master}
	r.gathered = true
	r.partitionedBy, r.partEq = nil, nil
	r.coPart = false
	r.orderedBy = nil
	return r
}

func (c *rewriteCtx) rec(n plan.Node) (result, error) {
	r, err := c.recNode(n)
	if err == nil && c.est != nil && r.phys != nil {
		c.est[r.phys] = r.rows
	}
	return r, err
}

func (c *rewriteCtx) recNode(n plan.Node) (result, error) {
	switch n := n.(type) {
	case *plan.ScanNode:
		return c.recScan(n)
	case *plan.FilterNode:
		return c.recFilter(n)
	case *plan.ProjectNode:
		return c.recProject(n)
	case *plan.JoinNode:
		return c.recJoin(n)
	case *plan.AggregateNode:
		r, err := c.recAggregate(n)
		if len(n.GroupBy) == 0 {
			r.maxRows = 1
		}
		return r, err
	case *plan.OrderByNode:
		return c.recOrderBy(n)
	case *plan.LimitNode:
		child, err := c.rec(n.Child)
		if err != nil {
			return result{}, err
		}
		g := c.gather(child)
		g.phys = &physLimit{child: g.phys, n: n.N}
		g.rows, g.maxRows = min(g.rows, n.N), n.N
		return g, nil
	default:
		return result{}, fmt.Errorf("rewriter: unsupported node %T", n)
	}
}

func (c *rewriteCtx) recScan(n *plan.ScanNode) (result, error) {
	info, err := c.cat.Table(n.Table)
	if err != nil {
		return result{}, err
	}
	cols := n.Cols
	if cols == nil {
		cols = info.Schema.Names()
	}
	schema := make(vector.Schema, 0, len(cols))
	for _, col := range cols {
		f, err := info.Schema.Field(col)
		if err != nil {
			return result{}, err
		}
		schema = append(schema, f)
	}
	rows, err := c.cat.TableRows(n.Table)
	if err != nil {
		return result{}, err
	}
	scan := &physScan{
		ScanSpec:   ScanSpec{Table: n.Table, Cols: cols, Codes: c.opts.on(CompressedExec)},
		replicated: info.PartitionKey == "", schema: schema}
	r := result{phys: scan, schema: schema, rows: rows, maxRows: rows}
	if info.PartitionKey == "" {
		r.replicated = true
	} else {
		r.coPart = true
		r.partCount = info.Partitions
		if schema.Index(info.PartitionKey) >= 0 {
			r.partitionedBy = []string{info.PartitionKey}
		}
	}
	if info.ClusteredOn != "" && schema.Index(info.ClusteredOn) >= 0 {
		r.orderedBy = []string{info.ClusteredOn}
		scan.Ordered = true
	}
	return r, nil
}

func (c *rewriteCtx) recFilter(n *plan.FilterNode) (result, error) {
	child, err := c.rec(n.Child)
	if err != nil {
		return result{}, err
	}
	pred, err := n.Pred.Bind(child.schema)
	if err != nil {
		return result{}, err
	}
	// Only a filter straight on a scan knows its columns' value ranges.
	var colRange func(col int) (int64, int64, bool)
	if scan, ok := n.Child.(*plan.ScanNode); ok {
		colRange = func(col int) (int64, int64, bool) {
			return c.cat.ColumnRange(scan.Table, child.schema[col].Name)
		}
	}
	child.rows = scaleRows(child.rows, expr.Selectivity(pred, colRange))
	// A filter directly on a scan, with ScanPushdown on: the scan evaluates
	// the predicate itself and skips on the intervals it implies (the "derive
	// scan ranges" rule of the Appendix rewriter profile).
	if scan, ok := child.phys.(*physScan); ok && scan.Filter == nil && c.opts.on(ScanPushdown) {
		scan.Filter = pred
		return child, nil
	}
	child.phys = &physFilter{child: child.phys, pred: pred}
	return child, nil
}

func (c *rewriteCtx) recProject(n *plan.ProjectNode) (result, error) {
	child, err := c.rec(n.Child)
	if err != nil {
		return result{}, err
	}
	exprs := make([]expr.Expr, len(n.Exprs))
	schema := make(vector.Schema, len(n.Exprs))
	for i, ne := range n.Exprs {
		if exprs[i], err = ne.Expr.Bind(child.schema); err != nil {
			return result{}, err
		}
		t, err := ne.Expr.Type(child.schema)
		if err != nil {
			return result{}, err
		}
		schema[i] = vector.Field{Name: ne.Name, Type: t}
	}
	// Partitioning survives only for pass-through bare columns; a single
	// partition column survives through any column equal to it, and so does
	// the order.
	passed := func(cols []string) []string {
		var out []string
		for _, pc := range cols {
			for _, ne := range n.Exprs {
				if ne.Expr.Name == pc {
					out = append(out, ne.Name)
					break
				}
			}
		}
		return out
	}
	newPart, newEq := passed(child.partitionedBy), []string(nil)
	if pc := passed(child.partCols()); len(pc) > 0 {
		newPart, newEq = pc[:1], pc[1:]
	}
	if len(newPart) != len(child.partitionedBy) {
		newPart = nil
	}
	child.phys = &physProject{child: child.phys, exprs: exprs, schema: schema}
	child.schema = schema
	child.partitionedBy, child.partEq = newPart, newEq
	child.orderedBy = passed(child.orderedBy)
	return child, nil
}

// keyAligned reports whether the join keys pair the two sides' partition
// keys, or columns equal to them, at the same position, making
// partition-pair joins correct.
func keyAligned(lKeys, rKeys []string, left, right result) bool {
	for i := range lKeys {
		if slices.Contains(left.partCols(), lKeys[i]) && slices.Contains(right.partCols(), rKeys[i]) {
			return true
		}
	}
	return false
}

func bindAll(names []string, s vector.Schema) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(names))
	for i, name := range names {
		idx := s.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("rewriter: unknown key column %q", name)
		}
		out[i] = expr.Col(idx, s[idx].Type.Kind)
	}
	return out, nil
}

func (c *rewriteCtx) recJoin(n *plan.JoinNode) (result, error) {
	left, err := c.rec(n.Left)
	if err != nil {
		return result{}, err
	}
	right, err := c.rec(n.Right)
	if err != nil {
		return result{}, err
	}
	var jt exec.JoinType
	switch n.Kind {
	case plan.InnerJoin:
		jt = exec.Inner
	case plan.LeftOuterJoin:
		jt = exec.LeftOuter
	case plan.SemiJoin:
		jt = exec.Semi
	case plan.AntiJoin:
		jt = exec.Anti
	}

	outSchema := left.schema.Clone()
	if jt == exec.Inner || jt == exec.LeftOuter {
		outSchema = append(outSchema, right.schema...)
	}
	if jt == exec.LeftOuter {
		outSchema = append(outSchema, vector.Field{Name: plan.MatchedCol, Type: vector.TBool})
	}

	// Exchanges keep their input's schema, so the keys bind once for every
	// placement below.
	pk, err := bindAll(n.LeftKeys, left.schema)
	if err != nil {
		return result{}, err
	}
	bk, err := bindAll(n.RightKeys, right.schema)
	if err != nil {
		return result{}, err
	}
	join := &physJoin{build: right.phys, probe: left.phys,
		buildKeys: bk, probeKeys: pk, jt: jt, schema: outSchema}
	out := result{phys: join, schema: outSchema, rows: joinRows(jt, left, right), maxRows: -1}
	switch {
	// Rule: local join over co-located partitions.
	case c.opts.on(LocalJoin) && left.coPart && right.coPart &&
		left.partCount == right.partCount &&
		keyAligned(n.LeftKeys, n.RightKeys, left, right):
		// Co-ordered clustered tables merge-join without hashing, on the
		// order column or any column equal to it.
		if len(n.LeftKeys) == 1 &&
			slices.Contains(left.orderedBy, n.LeftKeys[0]) && slices.Contains(right.orderedBy, n.RightKeys[0]) {
			join.merge = true
			join.lkey, join.rkey = left.schema.Index(n.LeftKeys[0]), right.schema.Index(n.RightKeys[0])
			out.orderedBy = left.orderedBy
		}
		out.coPart, out.partCount = true, left.partCount
		out.partitionedBy, out.partEq = left.partitionedBy, left.partEq

	// Both sides replicated: join locally on every node, result stays
	// replicated (no flag — it is never worse).
	case left.replicated && right.replicated:
		out.replicated = true

	// Rule: replicated build side — build the hash table on every node from
	// a replica, splitting only between local threads: the replica on disk,
	// or one a DXchgBroadcast makes at run time when that ships fewer bytes
	// than repartitioning both sides. The probe keeps its streams, its
	// partitioning and its order; a replicated probe is never broadcast to,
	// since every copy of it would then join.
	case c.opts.on(ReplicateBuild) && !left.gathered && !left.replicated &&
		(right.replicated || c.broadcastCheaper(left, right)):
		if !right.replicated {
			join.build = &physDXchgBroadcast{child: right.phys, to: left.phys}
		}
		join.broadcastBuild = true
		out.partitionedBy, out.partEq = left.partitionedBy, left.partEq
		out.coPart, out.partCount = left.coPart, left.partCount
		out.orderedBy = left.orderedBy

	// Fallback: repartition both sides across the cluster on the join
	// keys (the expensive DXchg path the cost model tries to avoid).
	default:
		exL, err := c.exchangeOn(left, n.LeftKeys)
		if err != nil {
			return result{}, err
		}
		exR, err := c.exchangeOn(right, n.RightKeys)
		if err != nil {
			return result{}, err
		}
		join.probe, join.build = exL.phys, exR.phys
		out.partitionedBy = n.LeftKeys
	}
	// An inner join's key pairs are equal on every output row, so a build
	// key paired with the partition or the order column is another name for
	// it.
	if jt == exec.Inner {
		for i, k := range n.LeftKeys {
			if slices.Contains(out.partCols(), k) {
				out.partEq = append(slices.Clip(out.partEq), n.RightKeys[i])
			}
			if slices.Contains(out.orderedBy, k) {
				out.orderedBy = append(slices.Clip(out.orderedBy), n.RightKeys[i])
			}
		}
	}

	if n.ExtraPred != nil {
		bound, err := n.ExtraPred.Bind(outSchema)
		if err != nil {
			return result{}, err
		}
		out.phys = &physFilter{child: out.phys, pred: bound}
		out.rows = scaleRows(out.rows, expr.Selectivity(bound, nil))
	}
	return out, nil
}

// exchangeOn hash-repartitions a result on the named keys. Replicated inputs
// are first restricted to a single node so rows are not duplicated.
func (c *rewriteCtx) exchangeOn(r result, keys []string) (result, error) {
	bound, err := bindAll(keys, r.schema)
	if err != nil {
		return result{}, err
	}
	phys := r.phys
	if r.replicated {
		phys = &physOneNode{child: phys, node: c.opts.Master}
	}
	r.phys = &physDXchgHash{child: phys, keys: bound}
	r.partitionedBy, r.partEq = keys, nil
	r.coPart = false
	r.replicated = false
	r.gathered = false
	r.orderedBy = nil
	return r, nil
}

// joinRows estimates a join's output with joinorder.JoinRows, the
// containment model the SQL join orderer ranks by, from the probe's (left)
// and build's (right) estimates and the build's upper bound as its base. A
// semi join keeps the probe rows that estimate can match, an anti join the
// rest, and a left outer join at least every probe row.
func joinRows(jt exec.JoinType, left, right result) int64 {
	base := right.rows
	if right.maxRows >= 0 {
		base = right.maxRows
	}
	probe := float64(left.rows)
	rows := joinorder.JoinRows(probe, float64(right.rows), float64(base), math.Inf(1))
	switch jt {
	case exec.Semi:
		rows = min(rows, probe)
	case exec.Anti:
		rows = probe - min(rows, probe)
	case exec.LeftOuter:
		rows = max(rows, probe)
	}
	return max(int64(rows+0.5), 1)
}

// broadcastCheaper reports whether replicating the build side to the probe's
// nodes moves fewer bytes than repartitioning both sides on the join keys. A
// broadcast is costed from the build's upper bound, so an estimate that comes
// out low cannot turn it into a disaster: that many rows ship to N−1 nodes and
// are built once more on each of the N, where the node's probe streams share
// one table. A repartition moves (N−1)/N of both sides' estimated rows. A
// build without a bound, a join's output, is never broadcast.
func (c *rewriteCtx) broadcastCheaper(probe, build result) bool {
	if build.maxRows < 0 {
		return false
	}
	nodes := float64(c.opts.Nodes)
	bcast := float64(build.maxRows) * rowWidth(build.schema) * (2*nodes - 1)
	repart := (float64(probe.rows)*rowWidth(probe.schema) + float64(build.rows)*rowWidth(build.schema)) * (nodes - 1) / nodes
	return bcast < repart
}

// rowWidth is a row's bytes as cost accounting counts them (vector.Kind.Width).
func rowWidth(s vector.Schema) float64 {
	w := 0
	for _, f := range s {
		w += f.Type.Kind.Width()
	}
	return float64(w)
}

func subset(sub, super []string) bool {
	for _, s := range sub {
		found := false
		for _, t := range super {
			if s == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (c *rewriteCtx) recAggregate(n *plan.AggregateNode) (result, error) {
	child, err := c.rec(n.Child)
	if err != nil {
		return result{}, err
	}
	outSchema, err := n.Schema(catAdapter{c.cat})
	if err != nil {
		return result{}, err
	}

	// Grouping is stream-local when the stream partitioning keys are a
	// subset of the GROUP BY (every group confined to one stream), when
	// the data is replicated, or when already gathered. A single partition
	// column counts under any of its names; the output keeps the grouped one.
	for _, pc := range child.partCols() {
		if slices.Contains(n.GroupBy, pc) {
			child.partitionedBy, child.partEq = []string{pc}, nil
			break
		}
	}
	local := child.gathered || child.replicated ||
		(len(child.partitionedBy) > 0 && subset(child.partitionedBy, n.GroupBy))

	if local {
		keys, aggs, err := directAggs(n, child.schema)
		if err != nil {
			return result{}, err
		}
		// Streams ordered on the one group key aggregate in that order, with
		// no hash table, and the result keeps the order.
		kind := "direct"
		if len(n.GroupBy) == 1 && slices.Contains(child.orderedBy, n.GroupBy[0]) {
			kind = "ordered"
			child.orderedBy = n.GroupBy[:1:1]
		} else {
			child.orderedBy = nil
		}
		child.phys = &physAggr{child: child.phys, keys: keys, aggs: aggs, schema: outSchema, kind: kind}
		child.schema = outSchema
		child.rows = groupEstimate(child.rows)
		// Partitioning property: group keys retain the partition cols.
		return child, nil
	}

	hasDistinct := false
	for _, a := range n.Aggs {
		if a.Func == plan.CountDistinct {
			hasDistinct = true
		}
	}

	if !c.opts.on(PartialAgg) || hasDistinct {
		// Exchange raw rows, aggregate once at the consumers.
		var ex result
		if len(n.GroupBy) == 0 {
			ex = c.gather(child)
		} else {
			if ex, err = c.exchangeOn(child, n.GroupBy); err != nil {
				return result{}, err
			}
		}
		keys, aggs, err := directAggs(n, ex.schema)
		if err != nil {
			return result{}, err
		}
		ex.phys = &physAggr{child: ex.phys, keys: keys, aggs: aggs, schema: outSchema, kind: "direct"}
		ex.schema = outSchema
		ex.rows = groupEstimate(child.rows)
		ex.partitionedBy = n.GroupBy
		return ex, nil
	}

	// Rule: partial aggregation before the exchange.
	partialSchema, pKeys, pAggs, finAggs, finProj, err := decomposeAggs(n, child.schema, outSchema)
	if err != nil {
		return result{}, err
	}
	child.phys = &physAggr{child: child.phys, keys: pKeys, aggs: pAggs, schema: partialSchema, kind: "partial"}
	child.schema = partialSchema
	child.orderedBy = nil

	var ex result
	if len(n.GroupBy) == 0 {
		ex = c.gather(child)
	} else {
		if ex, err = c.exchangeOn(child, n.GroupBy); err != nil {
			return result{}, err
		}
	}
	// Final combine: keys are the leading partial columns.
	fKeys := make([]expr.Expr, len(n.GroupBy))
	for i := range n.GroupBy {
		fKeys[i] = expr.Col(i, partialSchema[i].Type.Kind)
	}
	combinedSchema := partialSchema // same column layout after combine
	ex.phys = &physAggr{child: ex.phys, keys: fKeys, aggs: finAggs, schema: combinedSchema, kind: "final"}
	ex.phys = &physProject{child: ex.phys, exprs: finProj, schema: outSchema}
	ex.schema = outSchema
	ex.rows = groupEstimate(child.rows)
	ex.partitionedBy = n.GroupBy
	return ex, nil
}

func groupEstimate(rows int64) int64 {
	g := rows/10 + 1
	if g > 100000 {
		g = 100000
	}
	return g
}

// directAggs binds the logical aggregates for single-phase execution.
func directAggs(n *plan.AggregateNode, s vector.Schema) ([]expr.Expr, []exec.AggSpec, error) {
	keys, err := bindAll(n.GroupBy, s)
	if err != nil {
		return nil, nil, err
	}
	aggs := make([]exec.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		if aggs[i], err = bindAgg(a, s); err != nil {
			return nil, nil, err
		}
	}
	return keys, aggs, nil
}

// aggFuncs maps each logical aggregate to its exec function. The engine has
// no NULLs, so COUNT(x) is COUNT(*) and its argument is not evaluated.
var aggFuncs = map[plan.AggFuncName]exec.AggFunc{
	plan.Sum: exec.AggSum, plan.Count: exec.AggCountStar, plan.CountStar: exec.AggCountStar,
	plan.Min: exec.AggMin, plan.Max: exec.AggMax, plan.Avg: exec.AggAvg, plan.CountDistinct: exec.AggCountDistinct,
}

// bindAgg binds one logical aggregate over s.
func bindAgg(a plan.AggItem, s vector.Schema) (spec exec.AggSpec, err error) {
	f, ok := aggFuncs[a.Func]
	if !ok {
		return spec, fmt.Errorf("rewriter: unknown aggregate %q", a.Func)
	}
	spec.Func = f
	if f != exec.AggCountStar {
		spec.Arg, err = a.Arg.Bind(s)
	}
	return spec, err
}

// decomposeAggs lowers logical aggregates into a partial phase with one
// aggregate per distinct (function, argument), a final phase combining each
// (counts and sums add up, MIN and MAX repeat) and a projection restoring
// the logical output. AVG is its argument's SUM over the COUNT(*) there, 0
// over no rows as the single-phase AVG is.
func decomposeAggs(n *plan.AggregateNode, childSchema, outSchema vector.Schema) (
	partialSchema vector.Schema, pKeys []expr.Expr, pAggs []exec.AggSpec,
	finAggs []exec.AggSpec, finProj []expr.Expr, err error) {

	pKeys, err = bindAll(n.GroupBy, childSchema)
	if err != nil {
		return
	}
	partialSchema = make(vector.Schema, 0, len(n.GroupBy)+len(n.Aggs)+1)
	for i, g := range n.GroupBy {
		f, ferr := childSchema.Field(g)
		if ferr != nil {
			err = ferr
			return
		}
		partialSchema = append(partialSchema, f)
		finProj = append(finProj, expr.Col(i, f.Type.Kind))
	}
	// partial returns the combined column of f(arg), adding it on first use.
	type partialKey struct {
		f    exec.AggFunc
		arg  string
		kind vector.Kind
	}
	cols := map[partialKey]expr.Expr{}
	partial := func(name string, t vector.Type, f exec.AggFunc, arg expr.Expr) expr.Expr {
		k := partialKey{f: f}
		if arg != nil {
			k.arg, k.kind = arg.String(), arg.Kind()
		}
		if col, ok := cols[k]; ok {
			return col
		}
		col := expr.Col(len(partialSchema), t.Kind)
		partialSchema = append(partialSchema, vector.Field{Name: name, Type: t})
		pAggs = append(pAggs, exec.AggSpec{Func: f, Arg: arg})
		fin := exec.AggSum
		if f == exec.AggMin || f == exec.AggMax {
			fin = f
		}
		finAggs = append(finAggs, exec.AggSpec{Func: fin, Arg: col})
		cols[k] = col
		return col
	}
	for i, a := range n.Aggs {
		var spec exec.AggSpec
		if spec, err = bindAgg(a, childSchema); err != nil {
			return
		}
		var col expr.Expr
		switch spec.Func {
		case exec.AggAvg:
			st := vector.TFloat64
			if spec.Arg.Kind() != vector.Float64 {
				st = vector.TInt64
			}
			sum := partial(a.Name+"$sum", st, exec.AggSum, spec.Arg)
			cnt := partial(a.Name+"$cnt", vector.TInt64, exec.AggCountStar, nil)
			col = expr.Case(expr.EQ(cnt, expr.ConstInt64(0)), expr.ConstFloat(0), expr.Div(sum, cnt))
		case exec.AggCountDistinct:
			err = fmt.Errorf("rewriter: aggregate %q cannot be decomposed", a.Func)
			return
		default:
			col = partial(a.Name, outSchema[len(n.GroupBy)+i].Type, spec.Func, spec.Arg)
		}
		finProj = append(finProj, col)
	}
	return
}

func (c *rewriteCtx) recOrderBy(n *plan.OrderByNode) (result, error) {
	child, err := c.rec(n.Child)
	if err != nil {
		return result{}, err
	}
	keys := make([]exec.SortKey, len(n.Keys))
	for i, k := range n.Keys {
		bound, err := k.Expr.Bind(child.schema)
		if err != nil {
			return result{}, err
		}
		keys[i] = exec.SortKey{Expr: bound, Desc: k.Desc}
	}
	if !child.gathered && n.Limit >= 0 {
		// Partial top-N per stream before the union (the TopN(partial) /
		// TopN(final) pair of Figure 5).
		child.phys = &physTopN{child: child.phys, keys: keys, n: n.Limit, kind: "partial"}
	}
	g := c.gather(child)
	if n.Limit >= 0 {
		g.phys = &physTopN{child: g.phys, keys: keys, n: n.Limit, kind: "final"}
		g.rows, g.maxRows = n.Limit, n.Limit
	} else {
		g.phys = &physSort{child: g.phys, keys: keys}
	}
	g.orderedBy = nil
	return g, nil
}

// scaleRows applies a selectivity to a row estimate, keeping at least one row.
func scaleRows(rows int64, sel float64) int64 {
	return max(int64(float64(rows)*sel+0.5), 1)
}

// catAdapter exposes the rewriter catalog as a plan.Catalog.
type catAdapter struct{ c Catalog }

// TableSchema implements plan.Catalog.
func (a catAdapter) TableSchema(name string) (vector.Schema, error) {
	info, err := a.c.Table(name)
	if err != nil {
		return nil, err
	}
	return info.Schema, nil
}

// physOneNode restricts a multi-node result to the streams of one node
// (replicated inputs feeding exchanges or the final gather). Streams on
// other nodes are never opened, so their scans cost nothing.
type physOneNode struct {
	child Phys
	node  int
}

func (p *physOneNode) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physOneNode) children() []Phys         { return []Phys{p.child} }
func (p *physOneNode) label() string            { return fmt.Sprintf("OneNode[n%d]", p.node) }

func (p *physOneNode) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	out := make([][]exec.Operator, e.Nodes)
	if len(in[p.node]) > 1 {
		out[p.node] = []exec.Operator{exec.XchgUnion(e.ctx(), in[p.node])}
	} else {
		out[p.node] = in[p.node]
	}
	return out, nil
}
