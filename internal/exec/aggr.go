package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// AggFunc enumerates aggregate functions. The engine has no NULLs, so
// COUNT(x) is COUNT(*). The rewriter splits a distributed aggregate into a
// partial phase of SUM, COUNT(*), MIN and MAX, with AVG as SUM over COUNT(*)
// in a projection; AggAvg serves single-phase plans.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCountStar
	AggMin
	AggMax
	AggAvg
	AggCountDistinct
)

func (f AggFunc) String() string {
	return [...]string{"SUM", "COUNT(*)", "MIN", "MAX", "AVG", "COUNT(DISTINCT)"}[f]
}

// AggSpec is one aggregate: a function over an argument expression (nil for
// COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
}

// accum is one aggregate's state: typed columns indexed by group id.
type accum interface {
	// grow zero-extends the state to n groups.
	grow(n int)
	// fold adds a batch's rows to their groups. Ids from next on are groups
	// the batch starts; each first appears after every smaller new id.
	fold(arg *vector.Vec, groups []int32, next int32)
	// result returns the aggregate of groups [lo, hi) in a new vector.
	result(lo, hi int) *vector.Vec
	// reset drops every group, keeping the columns' capacity.
	reset()
}

// newAccum builds the state of one spec: COUNT(*) counts, SUM adds into
// int64 over integers and float64 over floats, AVG keeps SUM's column and a
// count, MIN/MAX keep values of their argument's kind. COUNT(DISTINCT)
// counts each group's values when they arrive as one run, in an ordered
// aggregation, and through a (group, value) table when groups interleave.
func (a *aggAcc) newAccum(spec AggSpec, ordered bool) (accum, error) {
	if spec.Func == AggCountStar {
		return &counts{}, nil
	}
	switch k := spec.Arg.Kind(); {
	case spec.Func == AggCountDistinct && !ordered:
		return &distinctTable{table: NewHashTable([]vector.Kind{vector.Int32, k}, a.pool), pool: a.pool, err: &a.err}, nil
	case spec.Func == AggCountDistinct && k == vector.String:
		return &distinctRuns[string]{load: loadStrings}, nil
	case spec.Func == AggCountDistinct:
		return &distinctRuns[int64]{load: loadBits}, nil
	case k == vector.Int32:
		return numAccum[int32, int64](spec.Func, (*vector.Vec).Int32s), nil
	case k == vector.Int64:
		return numAccum[int64, int64](spec.Func, (*vector.Vec).Int64s), nil
	case k == vector.Float64:
		return numAccum[float64, float64](spec.Func, (*vector.Vec).Float64s), nil
	case k == vector.String && (spec.Func == AggMin || spec.Func == AggMax):
		return &extremes[string]{get: (*vector.Vec).Strings, max: spec.Func == AggMax}, nil
	default:
		return nil, fmt.Errorf("exec: %v over %v in %s", spec.Func, k, spec.Arg)
	}
}

func numAccum[T number, S int64 | float64](f AggFunc, get func(*vector.Vec) []T) accum {
	switch f {
	case AggSum:
		return &sums[T, S]{get: get}
	case AggAvg:
		return &avgs[T, S]{sums: sums[T, S]{get: get}}
	default:
		return &extremes[T]{get: get, max: f == AggMax}
	}
}

// number and value are the kinds of state column: sums are numbers, MIN and
// MAX values.
type (
	number interface{ int32 | int64 | float64 }
	value  interface{ number | string }
)

// grown zero-extends s to n elements.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// vecOf copies a state column into a new vector of its kind.
func vecOf[T value](xs []T) *vector.Vec {
	switch xs := any(slices.Clone(xs)).(type) {
	case []int32:
		return vector.FromInt32(xs)
	case []int64:
		return vector.FromInt64(xs)
	case []float64:
		return vector.FromFloat64(xs)
	default:
		return vector.FromString(xs.([]string))
	}
}

// counts is COUNT(*)'s state, and the counts COUNT(DISTINCT)'s states keep.
type counts struct{ n []int64 }

func (a *counts) grow(n int) { a.n = grown(a.n, n) }
func (a *counts) fold(_ *vector.Vec, groups []int32, _ int32) {
	for _, g := range groups {
		a.n[g]++
	}
}
func (a *counts) result(lo, hi int) *vector.Vec { return vecOf(a.n[lo:hi]) }
func (a *counts) reset()                        { a.n = a.n[:0] }

// sums is SUM's state: T arguments added as S.
type sums[T number, S int64 | float64] struct {
	s   []S
	get func(*vector.Vec) []T
}

func (a *sums[T, S]) grow(n int) { a.s = grown(a.s, n) }
func (a *sums[T, S]) fold(arg *vector.Vec, groups []int32, _ int32) {
	s, xs := a.s, a.get(arg)
	for r, g := range groups {
		s[g] += S(xs[r])
	}
}
func (a *sums[T, S]) result(lo, hi int) *vector.Vec { return vecOf(a.s[lo:hi]) }
func (a *sums[T, S]) reset()                        { a.s = a.s[:0] }

// avgs is AVG's state: SUM's column and a count. AVG over no rows is 0, not
// NaN: the engine has no NULLs (TestHashAggrAvgEmptyInput).
type avgs[T number, S int64 | float64] struct {
	sums[T, S]
	counts
}

func (a *avgs[T, S]) grow(n int) { a.sums.grow(n); a.counts.grow(n) }
func (a *avgs[T, S]) fold(arg *vector.Vec, groups []int32, _ int32) {
	s, n, xs := a.s, a.n, a.get(arg)
	for r, g := range groups {
		s[g] += S(xs[r])
		n[g]++
	}
}
func (a *avgs[T, S]) result(lo, hi int) *vector.Vec {
	out := make([]float64, hi-lo)
	for i := range out {
		if c := a.n[lo+i]; c != 0 {
			out[i] = float64(a.s[lo+i]) / float64(c)
		}
	}
	return vector.FromFloat64(out)
}
func (a *avgs[T, S]) reset() { a.sums.reset(); a.counts.reset() }

// extremes is MIN's or MAX's state. A group starts from its first row, the
// first with an id from next on, so no value stands in for "none yet" and no
// flag says whether one came.
type extremes[T value] struct {
	v   []T
	get func(*vector.Vec) []T
	max bool
}

func (a *extremes[T]) grow(n int) { a.v = grown(a.v, n) }
func (a *extremes[T]) fold(arg *vector.Vec, groups []int32, next int32) {
	v, xs := a.v, a.get(arg)
	for r, g := range groups {
		switch x := xs[r]; {
		case g >= next:
			if vector.DebugAsserts && g != next {
				panic(fmt.Sprintf("exec: new group %d before group %d", g, next))
			}
			v[g], next = x, g+1
		case a.max && x > v[g], !a.max && x < v[g]:
			v[g] = x
		}
	}
}
func (a *extremes[T]) result(lo, hi int) *vector.Vec { return vecOf(a.v[lo:hi]) }
func (a *extremes[T]) reset()                        { a.v = a.v[:0] }

// distinctTable is COUNT(DISTINCT)'s state in HashAggr, whose groups
// interleave: a (group, value) table, where a row counts for its group when
// its pair is new. fold cannot return the table's error
// (vector.ErrStringBytes), so it keeps the first in *err, which
// aggAcc.update returns; the table is garbage from then on.
type distinctTable struct {
	counts
	table *HashTable
	pool  *vector.Pool
	err   *error
}

func (a *distinctTable) fold(arg *vector.Vec, groups []int32, _ int32) {
	if *a.err != nil {
		return
	}
	n := len(groups)
	ids := a.pool.GetSel(n)[:n]
	next := int32(a.table.Len()) // new pairs take ids from here, in order
	if *a.err = a.table.FindOrInsert([]*vector.Vec{vector.FromInt32(groups), arg}, n, ids); *a.err == nil {
		for r, id := range ids {
			if id == next {
				a.n[groups[r]]++
				next++
			}
		}
	}
	a.pool.PutSel(ids)
}
func (a *distinctTable) reset() { a.counts.reset(); a.table.Reset() }

// distinctRuns is COUNT(DISTINCT)'s state in OrderedAggr, whose groups are
// runs of rows: the open group's values, as int64 (Bool as 0 or 1, Int32 and
// Int64 widened, Float64 as its bits, so equality is the dedup table's
// bitwise rule) or as strings (dictionary-coded or not; a value shares its
// batch's bytes). A group's count is the number of its values once sorted
// and deduplicated, taken when the next group starts or the groups leave.
// Whenever the values have grown by vector.MaxSize, or by as many as the
// last dedup kept, since that dedup, they are deduplicated in place: the
// state is at most twice the open group's distinct values plus a batch, and
// a value takes part in O(1) sorts, amortized.
type distinctRuns[V cmp.Ordered] struct {
	counts
	vals []V // the open group's values, in arrival order after vals[:kept]
	kept int // len(vals) after its last dedup
	in   []V // the batch's values, as V; a group within it is sorted there
	load func(dst []V, arg *vector.Vec) []V
}

func (a *distinctRuns[V]) fold(arg *vector.Vec, groups []int32, next int32) {
	in := a.load(a.in[:0], arg)
	a.in = in
	for lo := 0; lo < len(groups); {
		g, hi := groups[lo], lo+1
		for hi < len(groups) && groups[hi] == g {
			hi++
		}
		if g >= next { // g starts, so the open group, g-1, is complete
			a.count(g - 1)
			next = g + 1
		}
		if len(a.vals) == 0 && hi < len(groups) { // g starts and completes here
			a.n[g] = distinct(in[lo:hi])
		} else {
			a.add(in[lo:hi])
		}
		lo = hi
	}
}

// result counts the open group too: groups leave only once all are complete.
func (a *distinctRuns[V]) result(lo, hi int) *vector.Vec {
	a.count(int32(len(a.n)) - 1)
	return a.counts.result(lo, hi)
}
func (a *distinctRuns[V]) reset() { a.counts.reset(); a.vals, a.kept = a.vals[:0], 0 }

// add appends xs to the open group's values, deduplicating them in place
// each time they reach their limit.
func (a *distinctRuns[V]) add(xs []V) {
	for len(xs) > 0 {
		limit := a.kept + max(vector.MaxSize, a.kept)
		m := min(len(xs), limit-len(a.vals))
		a.vals = append(a.vals, xs[:m]...)
		if xs = xs[m:]; len(a.vals) == limit {
			a.dedup()
		}
	}
}

// count stores the open group g's count, if a group is open, and closes it.
func (a *distinctRuns[V]) count(g int32) {
	if len(a.vals) > 0 {
		a.n[g] = distinct(a.vals)
		a.vals, a.kept = a.vals[:0], 0
	}
}

// dedup sorts the open group's values and drops the repeats.
func (a *distinctRuns[V]) dedup() {
	slices.Sort(a.vals)
	a.vals = slices.Compact(a.vals)
	a.kept = len(a.vals)
}

// distinct sorts xs, a group's values (one at least), and counts the
// distinct ones.
func distinct[V cmp.Ordered](xs []V) int64 {
	slices.Sort(xs)
	n := int64(1)
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			n++
		}
	}
	return n
}

// loadBits and loadStrings fill dst with arg's values as distinctRuns keeps
// them.
func loadBits(dst []int64, arg *vector.Vec) []int64 {
	switch arg.Kind() {
	case vector.Bool:
		for _, x := range arg.Bools() {
			var b int64
			if x {
				b = 1
			}
			dst = append(dst, b)
		}
	case vector.Int32:
		for _, x := range arg.Int32s() {
			dst = append(dst, int64(x))
		}
	case vector.Int64:
		dst = append(dst, arg.Int64s()...)
	default: // Float64
		for _, x := range arg.Float64s() {
			dst = append(dst, int64(math.Float64bits(x)))
		}
	}
	return dst
}

func loadStrings(dst []string, arg *vector.Vec) []string {
	for r := range arg.Len() {
		dst = append(dst, arg.StrAt(r))
	}
	return dst
}

// aggAcc is what both aggregation operators do once a row has its group id:
// one accum per spec over n groups.
type aggAcc struct {
	accs []accum
	n    int          // groups held
	pool *vector.Pool // the owning operator's pool
	err  error        // a fold's error: a distinctTable's, kept for update
}

// init builds the states of aggs, for an ordered aggregation or not.
func (a *aggAcc) init(aggs []AggSpec, ordered bool, pool *vector.Pool) (err error) {
	a.pool, a.n, a.err = pool, 0, nil
	a.accs = make([]accum, len(aggs))
	for i, spec := range aggs {
		if a.accs[i], err = a.newAccum(spec, ordered); err != nil {
			return err
		}
	}
	return nil
}

// grow zero-extends every state to n groups.
func (a *aggAcc) grow(n int) {
	for _, acc := range a.accs {
		acc.grow(n)
	}
	a.n = n
}

// update folds one batch into the groups its rows map to, n groups in all
// after it: args holds each spec's argument column (nil for COUNT(*)),
// groups the row's group id, new ids first appearing in increasing order.
func (a *aggAcc) update(args []*vector.Vec, groups []int32, n int) error {
	next := int32(a.n)
	a.grow(n)
	for ai, acc := range a.accs {
		acc.fold(args[ai], groups, next)
	}
	return a.err
}

// reset drops every group, keeping the states for the next ones.
func (a *aggAcc) reset() {
	for _, acc := range a.accs {
		acc.reset()
	}
	a.n = 0
}

// results fills out[ai] with aggregate ai's result column over groups
// [lo, hi).
func (a *aggAcc) results(lo, hi int, out []*vector.Vec) {
	for ai, acc := range a.accs {
		out[ai] = acc.result(lo, hi)
	}
}

// argCols collects each spec's argument column from the output of a program
// compiled from AggExprs, whose first nKeys outputs are the keys.
func argCols(prog *expr.Program, nKeys int, aggs []AggSpec, dst []*vector.Vec) {
	o := nKeys
	for i, a := range aggs {
		if a.Arg != nil {
			dst[i] = prog.Out(o)
			o++
		}
	}
}

// HashAggr performs hash group-by aggregation over the shared vectorized
// HashTable: group lookup is batch-at-a-time (FindOrInsert emits a group id
// per row, the table stores the key columns), aggregate updates fold whole
// argument vectors per group id, and COUNT(DISTINCT) deduplicates through a
// second (group, value)-keyed table instead of per-group map[string] sets.
// It consumes the child fully on the first Next, then emits result batches:
// key columns followed by one column per aggregate. With no keys it emits
// one global row, over no input too unless it is a partial phase.
type HashAggr struct {
	Child Operator
	Keys  []expr.Expr
	Aggs  []AggSpec
	// Partial marks the phase below an exchange. Without keys, over no
	// input, it emits no row: a final phase takes every row it gets as
	// values, and MIN/MAX would take the global row's zeros.
	Partial bool

	aggAcc
	prog     *expr.Program // keys, then every non-nil aggregate argument
	table    *HashTable    // group-by keys; nil for global aggregation
	pool     vector.Pool
	emitted  int
	consumed bool
}

// AggExprs lists the expressions an aggregation evaluates per batch, in the
// order of its program's outputs: the keys, then every non-nil argument.
// Compiling them together is what lets aggregates over overlapping
// expressions (Q01's five sums over four decimal columns) share their common
// primitives.
func AggExprs(keys []expr.Expr, aggs []AggSpec) []expr.Expr {
	out := append(make([]expr.Expr, 0, len(keys)+len(aggs)), keys...)
	for _, a := range aggs {
		if a.Arg != nil {
			out = append(out, a.Arg)
		}
	}
	return out
}

// Open implements Operator.
func (h *HashAggr) Open() (err error) {
	h.table = nil
	h.emitted = 0
	h.consumed = false
	if h.prog, err = expr.Compile(AggExprs(h.Keys, h.Aggs)...); err != nil {
		return err
	}
	if err := h.init(h.Aggs, false, &h.pool); err != nil {
		return err
	}
	return h.Child.Open()
}

// Close implements Operator.
func (h *HashAggr) Close() error { return h.Child.Close() }

// Next implements Operator.
func (h *HashAggr) Next() (*vector.Batch, error) {
	if !h.consumed {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.consumed = true
	}
	if h.emitted >= h.n {
		return nil, nil
	}
	lo := h.emitted
	hi := min(lo+vector.MaxSize, h.n)
	h.emitted = hi
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(h.Keys)+len(h.Aggs))}
	for i := range h.Keys {
		out.Vecs[i] = h.table.Keys()[i].Slice(lo, hi)
	}
	h.results(lo, hi, out.Vecs[len(h.Keys):])
	return out, nil
}

func (h *HashAggr) consume() error {
	if len(h.Keys) > 0 {
		kinds := make([]vector.Kind, len(h.Keys))
		for i, k := range h.Keys {
			kinds[i] = k.Kind()
		}
		h.table = NewHashTable(kinds, &h.pool)
	}
	keyCols := make([]*vector.Vec, len(h.Keys))
	args := make([]*vector.Vec, len(h.Aggs))
	for {
		b, err := h.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		// Evaluate key and argument expressions once per batch, into the
		// program's scratch: the table copies the keys it keeps and the
		// states fold the arguments before the next Run.
		if err := h.prog.RunInto(b, keyCols); err != nil {
			return err
		}
		argCols(h.prog, len(keyCols), h.Aggs, args)
		groups, ng := h.pool.GetSel(n)[:n], 1
		if h.table != nil {
			if err := h.table.FindOrInsert(keyCols, n, groups); err != nil {
				return err // groups goes to the collector, not the pool
			}
			ng = h.table.Len()
		} else {
			clear(groups)
		}
		if err := h.update(args, groups, ng); err != nil {
			return err
		}
		h.pool.PutSel(groups)
	}
	if h.table == nil && !h.Partial {
		h.grow(1) // the global row of no input: zeros
	}
	return nil
}

// OrderedAggr is grouped aggregation over an input ordered on its one integer
// group key, as a clustered table's key is. A group starts where the key
// changes, so group ids come from runs, not a hash table; the rest is aggAcc.
// Groups stay open across input batches and leave in key order once
// vector.MaxSize are held and the next starts: state is one output batch of
// groups. COUNT(DISTINCT) counts each group's values from its run, sorted,
// when the group completes, without hashing: it holds only the open group's
// values, deduplicated in place as they grow. vectorh_debug panics on a key
// that goes down.
type OrderedAggr struct {
	Child Operator
	Key   expr.Expr // Int32 or Int64, ascending in the input
	Aggs  []AggSpec

	aggAcc
	prog   *expr.Program // the key, then every non-nil aggregate argument
	pool   vector.Pool
	keys   *vector.Vec   // one per held group; the last is the open group
	last   int64         // the open group's key
	kvals  []int64       // the current input batch's keys
	args   []*vector.Vec // the current input batch's argument columns, by spec
	pos, n int           // its next row to fold, and its row count
	done   bool
}

// Open implements Operator.
func (o *OrderedAggr) Open() (err error) {
	if o.prog, err = expr.Compile(AggExprs([]expr.Expr{o.Key}, o.Aggs)...); err != nil {
		return err
	}
	if err := o.init(o.Aggs, true, &o.pool); err != nil {
		return err
	}
	o.keys, o.args = vector.New(o.Key.Kind(), vector.MaxSize), make([]*vector.Vec, len(o.Aggs))
	o.last, o.pos, o.n, o.done = math.MinInt64, 0, 0, false
	return o.Child.Open()
}

// Close implements Operator.
func (o *OrderedAggr) Close() error { return o.Child.Close() }

// Next implements Operator.
func (o *OrderedAggr) Next() (*vector.Batch, error) {
	for !o.done {
		if o.pos == o.n {
			b, err := o.Child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				o.done = true
				break
			}
			if o.pos, o.n = 0, b.Len(); o.n == 0 {
				continue
			}
			if err := o.prog.Run(b); err != nil {
				return nil, err
			}
			argCols(o.prog, 1, o.Aggs, o.args)
			o.kvals = appendKeys(o.kvals[:0], o.prog.Out(0), nil)
		}
		full, err := o.fold()
		if err != nil {
			return nil, err
		}
		if full {
			return o.emit(), nil
		}
	}
	if o.keys.Len() == 0 {
		return nil, nil
	}
	return o.emit(), nil
}

// fold assigns the current batch's rows from o.pos on to groups and folds
// them, stopping at a row that starts a group when vector.MaxSize groups are
// already held; it reports whether it stopped there.
func (o *OrderedAggr) fold() (full bool, err error) {
	key := o.prog.Out(0)
	groups := o.pool.GetSel(o.n - o.pos)
	g := int32(o.keys.Len()) - 1
	end := o.n
	for r := o.pos; r < o.n; r++ {
		if k := o.kvals[r]; g < 0 || k != o.last {
			if vector.DebugAsserts {
				checkAscending("ordered aggregation", o.last, k)
			}
			if g+1 == vector.MaxSize {
				end, full = r, true
				break
			}
			g++
			o.keys.AppendFrom(key, r)
			o.last = k
		}
		groups = append(groups, g)
	}
	args := o.args
	if o.pos > 0 || end < o.n { // once per output batch at most
		args = make([]*vector.Vec, len(o.args))
		for i, a := range o.args {
			if a != nil {
				args[i] = a.Slice(o.pos, end)
			}
		}
	}
	err = o.update(args, groups, int(g)+1)
	o.pool.PutSel(groups)
	o.pos = end
	return full, err
}

// emit hands the held groups, all closed, downstream and holds none.
func (o *OrderedAggr) emit() *vector.Batch {
	out := &vector.Batch{Vecs: make([]*vector.Vec, 1+len(o.Aggs))}
	out.Vecs[0] = o.keys
	o.results(0, o.keys.Len(), out.Vecs[1:])
	o.keys = vector.New(o.Key.Kind(), vector.MaxSize)
	o.reset()
	return out
}
