package exec

import (
	"math"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions. Avg is decomposed by the planner into Sum/Count for
// distributed plans but supported directly for local ones.
const (
	AggSum AggFunc = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
	AggCountDistinct
)

// AggSpec is one aggregate: a function over an argument expression (nil for
// COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
}

// resultKind returns the output kind of the aggregate.
func (a AggSpec) resultKind() vector.Kind {
	switch a.Func {
	case AggCount, AggCountStar, AggCountDistinct:
		return vector.Int64
	case AggAvg:
		return vector.Float64
	default:
		if a.Arg == nil {
			return vector.Int64
		}
		k := a.Arg.Kind()
		if k == vector.Int32 && a.Func == AggSum {
			return vector.Int64 // sums widen int32; min/max keep their argument's kind
		}
		return k
	}
}

// aggState is one group's accumulator for one aggregate.
type aggState struct {
	i64   int64
	f64   float64
	str   string
	seen  bool
	count int64
}

// aggAcc is what both aggregation operators do once a row has its group id:
// states[agg][group], plus a (group, value) dedup table per COUNT(DISTINCT)
// spec, created on first use so other aggregations never pay for it.
type aggAcc struct {
	aggs     []AggSpec
	states   [][]aggState // indexed [agg][group]
	distinct []*HashTable // (group, value) tables, by agg
	pool     *vector.Pool // the owning operator's pool
}

func (a *aggAcc) init(aggs []AggSpec, pool *vector.Pool) {
	a.aggs, a.pool = aggs, pool
	a.states, a.distinct = make([][]aggState, len(aggs)), make([]*HashTable, len(aggs))
}

// grow extends every per-agg state column to n groups.
func (a *aggAcc) grow(n int) {
	for ai := range a.states {
		for len(a.states[ai]) < n {
			a.states[ai] = append(a.states[ai], aggState{})
		}
	}
}

// update folds one batch into the groups its rows map to: args holds each
// spec's argument column (nil for COUNT(*)), groups the row's group id.
func (a *aggAcc) update(args []*vector.Vec, groups []int32) error {
	for ai, spec := range a.aggs {
		if spec.Func != AggCountDistinct {
			updateAggBatch(a.states[ai], spec, args[ai], groups)
		} else if err := a.updateDistinct(ai, args[ai], groups); err != nil {
			return err
		}
	}
	return nil
}

// updateDistinct records the batch's (group, value) pairs in the spec's
// dedup table, creating it on first use.
func (a *aggAcc) updateDistinct(ai int, arg *vector.Vec, groups []int32) error {
	dt := a.distinct[ai]
	if dt == nil {
		dt = NewHashTable([]vector.Kind{vector.Int32, arg.Kind()}, a.pool)
		a.distinct[ai] = dt
	}
	n := len(groups)
	ids := a.pool.GetSel(n)[:n]
	err := dt.FindOrInsert([]*vector.Vec{vector.FromInt32(groups), arg}, n, ids)
	a.pool.PutSel(ids)
	return err
}

// foldDistinct counts the dedup tables into the states: each stored
// (group, value) entry is one distinct value of its group.
func (a *aggAcc) foldDistinct() {
	for ai, dt := range a.distinct {
		if dt == nil {
			continue
		}
		states := a.states[ai]
		for _, g := range dt.Keys()[0].Int32s() {
			states[g].count++
		}
	}
}

// reset drops every group, keeping the state columns and dedup tables for
// the next ones.
func (a *aggAcc) reset() {
	for ai := range a.states {
		a.states[ai] = a.states[ai][:0]
		if dt := a.distinct[ai]; dt != nil {
			dt.Reset()
		}
	}
}

// results fills out[ai] with aggregate ai's result column over groups
// [lo, hi).
func (a *aggAcc) results(lo, hi int, out []*vector.Vec) {
	for ai, spec := range a.aggs {
		v := vector.New(spec.resultKind(), hi-lo)
		for g := lo; g < hi; g++ {
			st := &a.states[ai][g]
			switch spec.Func {
			case AggCount, AggCountStar, AggCountDistinct:
				v.AppendInt64(st.count)
			case AggAvg:
				if st.count == 0 {
					// AVG over zero rows: the engine has no NULLs, so the
					// empty (global) group deliberately emits 0 rather
					// than NaN from 0/0. Tested by
					// TestHashAggrAvgEmptyInput.
					v.AppendFloat64(0)
				} else {
					v.AppendFloat64(st.f64 / float64(st.count))
				}
			case AggSum, AggMin, AggMax:
				switch spec.resultKind() {
				case vector.Float64:
					v.AppendFloat64(st.f64)
				case vector.String:
					v.AppendString(st.str)
				case vector.Int32:
					v.AppendInt32(int32(st.i64))
				default:
					v.AppendInt64(st.i64)
				}
			}
		}
		out[ai] = v
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
// exactly one global row.
type HashAggr struct {
	Child Operator
	Keys  []expr.Expr
	Aggs  []AggSpec

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
// expressions (Q01's eleven over five) share their common primitives.
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
	return h.Child.Open()
}

// Close implements Operator.
func (h *HashAggr) Close() error { return h.Child.Close() }

// numGroups returns the group count: the table's, or the one global group.
func (h *HashAggr) numGroups() int {
	if h.table != nil {
		return h.table.Len()
	}
	return 1
}

// Next implements Operator.
func (h *HashAggr) Next() (*vector.Batch, error) {
	if !h.consumed {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.consumed = true
	}
	n := h.numGroups()
	if h.emitted >= n {
		return nil, nil
	}
	lo := h.emitted
	hi := min(lo+vector.MaxSize, n)
	h.emitted = hi
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(h.Keys)+len(h.Aggs))}
	for i := range h.Keys {
		out.Vecs[i] = h.table.Keys()[i].Slice(lo, hi)
	}
	h.results(lo, hi, out.Vecs[len(h.Keys):])
	return out, nil
}

func (h *HashAggr) consume() error {
	h.init(h.Aggs, &h.pool)
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
		groups := h.pool.GetSel(n)[:n]
		if h.table != nil {
			if err := h.table.FindOrInsert(keyCols, n, groups); err != nil {
				return err // groups goes to the collector, not the pool
			}
		} else {
			clear(groups)
		}
		h.grow(h.numGroups())
		if err := h.update(args, groups); err != nil {
			return err
		}
		h.pool.PutSel(groups)
	}
	// Global aggregates emit one row even for empty input.
	h.grow(h.numGroups())
	h.foldDistinct()
	return nil
}

// OrderedAggr is grouped aggregation over an input ordered on its one integer
// group key, as a clustered table's key is. A group starts where the key
// changes, so group ids come from runs, not a hash table; the rest is aggAcc.
// Groups stay open across input batches and leave in key order once
// vector.MaxSize are held and the next starts: state, COUNT(DISTINCT)'s
// included, is one output batch of groups. vectorh_debug panics on a key
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
	o.init(o.Aggs, &o.pool)
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
	o.grow(int(g) + 1)
	err = o.update(args, groups)
	o.pool.PutSel(groups)
	o.pos = end
	return full, err
}

// emit hands the held groups, all closed, downstream and holds none.
func (o *OrderedAggr) emit() *vector.Batch {
	o.foldDistinct()
	out := &vector.Batch{Vecs: make([]*vector.Vec, 1+len(o.Aggs))}
	out.Vecs[0] = o.keys
	o.results(0, o.keys.Len(), out.Vecs[1:])
	o.keys = vector.New(o.Key.Kind(), vector.MaxSize)
	o.reset()
	return out
}

// updateAggBatch folds one batch of argument values into the per-group
// states, hoisting the function/kind dispatch out of the row loop.
func updateAggBatch(states []aggState, spec AggSpec, arg *vector.Vec, groups []int32) {
	switch spec.Func {
	case AggCountStar, AggCount:
		for _, g := range groups {
			states[g].count++
		}
		return
	case AggAvg:
		switch arg.Kind() {
		case vector.Float64:
			for r, g := range groups {
				st := &states[g]
				st.f64 += arg.Float64s()[r]
				st.count++
			}
		case vector.Int64:
			for r, g := range groups {
				st := &states[g]
				st.f64 += float64(arg.Int64s()[r])
				st.count++
			}
		case vector.Int32:
			for r, g := range groups {
				st := &states[g]
				st.f64 += float64(arg.Int32s()[r])
				st.count++
			}
		}
		return
	}
	switch arg.Kind() {
	case vector.Float64:
		xs := arg.Float64s()
		switch spec.Func {
		case AggSum:
			for r, g := range groups {
				st := &states[g]
				st.f64 += xs[r]
				st.seen = true
			}
		case AggMin:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x < st.f64 {
					st.f64 = x
				}
				st.seen = true
			}
		case AggMax:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x > st.f64 {
					st.f64 = x
				}
				st.seen = true
			}
		}
	case vector.String:
		switch spec.Func {
		case AggMin:
			for r, g := range groups {
				st := &states[g]
				if x := arg.StrAt(r); !st.seen || x < st.str {
					st.str = x
				}
				st.seen = true
			}
		case AggMax:
			for r, g := range groups {
				st := &states[g]
				if x := arg.StrAt(r); !st.seen || x > st.str {
					st.str = x
				}
				st.seen = true
			}
		}
	case vector.Int32:
		xs := arg.Int32s()
		switch spec.Func {
		case AggSum:
			for r, g := range groups {
				st := &states[g]
				st.i64 += int64(xs[r])
				st.seen = true
			}
		case AggMin:
			for r, g := range groups {
				st := &states[g]
				if x := int64(xs[r]); !st.seen || x < st.i64 {
					st.i64 = x
				}
				st.seen = true
			}
		case AggMax:
			for r, g := range groups {
				st := &states[g]
				if x := int64(xs[r]); !st.seen || x > st.i64 {
					st.i64 = x
				}
				st.seen = true
			}
		}
	default:
		xs := arg.Int64s()
		switch spec.Func {
		case AggSum:
			for r, g := range groups {
				st := &states[g]
				st.i64 += xs[r]
				st.seen = true
			}
		case AggMin:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x < st.i64 {
					st.i64 = x
				}
				st.seen = true
			}
		case AggMax:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x > st.i64 {
					st.i64 = x
				}
				st.seen = true
			}
		}
	}
}
