package exec

import (
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

	prog     *expr.Program // keys, then every non-nil aggregate argument
	table    *HashTable    // group-by keys; nil for global aggregation
	states   [][]aggState  // indexed [agg][group]
	distinct []*HashTable  // (group, value) tables, allocated lazily and only
	// for AggCountDistinct specs
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
	h.states = nil
	h.distinct = nil
	h.emitted = 0
	h.consumed = false
	if h.prog, err = expr.Compile(AggExprs(h.Keys, h.Aggs)...); err != nil {
		return err
	}
	return h.Child.Open()
}

// Close implements Operator.
func (h *HashAggr) Close() error { return h.Child.Close() }

// numGroups returns the group count after consumption.
func (h *HashAggr) numGroups() int {
	if len(h.states) == 0 {
		return 0
	}
	return len(h.states[0])
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
	hi := lo + vector.MaxSize
	if hi > n {
		hi = n
	}
	h.emitted = hi
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(h.Keys)+len(h.Aggs))}
	for i := range h.Keys {
		out.Vecs[i] = h.table.Keys()[i].Slice(lo, hi)
	}
	for ai, spec := range h.Aggs {
		v := vector.New(spec.resultKind(), hi-lo)
		for g := lo; g < hi; g++ {
			st := &h.states[ai][g]
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
		out.Vecs[len(h.Keys)+ai] = v
	}
	return out, nil
}

func (h *HashAggr) consume() error {
	h.states = make([][]aggState, len(h.Aggs))
	h.distinct = make([]*HashTable, len(h.Aggs))
	if len(h.Keys) > 0 {
		kinds := make([]vector.Kind, len(h.Keys))
		for i, k := range h.Keys {
			kinds[i] = k.Kind()
		}
		h.table = NewHashTable(kinds, &h.pool)
	}
	keyCols := make([]*vector.Vec, len(h.Keys))
	argCols := make([]*vector.Vec, len(h.Aggs))
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
		o := len(keyCols)
		for i, a := range h.Aggs {
			if a.Arg != nil {
				argCols[i] = h.prog.Out(o)
				o++
			}
		}
		groups := h.pool.GetSel(n)[:n]
		if h.table != nil {
			h.table.FindOrInsert(keyCols, n, groups)
		} else {
			for i := range groups {
				groups[i] = 0
			}
		}
		h.growStates()
		for ai, spec := range h.Aggs {
			if spec.Func == AggCountDistinct {
				h.updateDistinct(ai, argCols[ai], groups, n)
			} else {
				updateAggBatch(h.states[ai], spec, argCols[ai], groups)
			}
		}
		h.pool.PutSel(groups)
	}
	// Global aggregates emit one row even for empty input.
	if len(h.Keys) == 0 && h.numGroups() == 0 {
		h.growStates()
	}
	// Fold the distinct tables: each stored (group, value) entry is one
	// distinct value of its group.
	for ai, dt := range h.distinct {
		if dt == nil {
			continue
		}
		states := h.states[ai]
		for _, g := range dt.Keys()[0].Int32s() {
			states[g].count++
		}
	}
	return nil
}

// growStates extends every per-agg state column to the current group count.
func (h *HashAggr) growStates() {
	want := 1
	if h.table != nil {
		want = h.table.Len()
	}
	for ai := range h.states {
		for len(h.states[ai]) < want {
			h.states[ai] = append(h.states[ai], aggState{})
		}
	}
}

// updateDistinct records this batch's (group, value) pairs in the spec's
// dedup table, creating it on first use (so non-distinct aggregations never
// pay for it).
func (h *HashAggr) updateDistinct(ai int, arg *vector.Vec, groups []int32, n int) {
	dt := h.distinct[ai]
	if dt == nil {
		dt = NewHashTable([]vector.Kind{vector.Int32, arg.Kind()}, &h.pool)
		h.distinct[ai] = dt
	}
	ids := h.pool.GetSel(n)[:n]
	dt.FindOrInsert([]*vector.Vec{vector.FromInt32(groups), arg}, n, ids)
	h.pool.PutSel(ids)
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
		xs := arg.Strings()
		switch spec.Func {
		case AggMin:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x < st.str {
					st.str = x
				}
				st.seen = true
			}
		case AggMax:
			for r, g := range groups {
				st := &states[g]
				if x := xs[r]; !st.seen || x > st.str {
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
