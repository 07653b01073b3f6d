package exec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// OrderedAggr and HashAggr are checked on the same sorted input against a
// plain-Go model of every aggregate: both must agree with it row for row,
// and the ordered one must emit its groups in key order, at most one output
// batch at a time.

var words = []string{"ash", "birch", "cedar", "elm", "fir", "oak", "yew"}

// orderedInput is a key-sorted input: keys[r] and vals[r] per live row, a
// batch ending after each row in cuts, the key as Int32 or Int64 and, with
// sel, each batch padded with dead out-of-order rows that only a selection
// vector hides.
type orderedInput struct {
	keys, vals []int64
	cuts       map[int]bool
	key32, sel bool
}

// The columns of an orderedInput batch.
const (
	colKey = iota
	colI32
	colI64
	colDate
	colF64
	colStr
	colDict
)

// batches builds the input afresh, so a dictionary column one operator
// materializes in place is still coded for the other.
func (in orderedInput) batches() []*vector.Batch {
	dict := &compress.StrDict{Values: words}
	var out []*vector.Batch
	var keys, i64 []int64
	var i32, dates []int32
	var f64 []float64
	var strs []string
	var codes []uint32
	var sel []int32
	row := func(k, v int64) {
		keys, i32, i64 = append(keys, k), append(i32, cell(colI32, k, v).(int32)), append(i64, cell(colI64, k, v).(int64))
		dates, f64 = append(dates, cell(colDate, k, v).(int32)), append(f64, cell(colF64, k, v).(float64))
		strs, codes = append(strs, cell(colStr, k, v).(string)), append(codes, uint32((v+3)%int64(len(words))))
	}
	flush := func() {
		kv := vector.FromInt64(keys)
		if in.key32 {
			k32 := make([]int32, len(keys))
			for i, k := range keys {
				k32[i] = int32(k)
			}
			kv = vector.FromInt32(k32)
		}
		b := vector.NewBatch(kv, vector.FromInt32(i32), vector.FromInt64(i64), vector.FromInt32(dates),
			vector.FromFloat64(f64), vector.FromString(strs), vector.FromDictCodes(codes, dict))
		if in.sel {
			b.Sel = sel
		}
		out = append(out, b)
		keys, i32, i64, dates, f64, strs, codes, sel = nil, nil, nil, nil, nil, nil, nil, []int32{}
	}
	for r, k := range in.keys {
		if in.sel {
			row(-k-1, in.vals[r]+1) // dead: out of order and different values
			sel = append(sel, int32(len(keys)))
		}
		row(k, in.vals[r])
		if in.cuts[r] || r == len(in.keys)-1 {
			flush()
		}
	}
	if len(in.keys) == 0 {
		flush() // a batch with columns and no rows
	}
	return out
}

// cell is the value of column col in the row of key k and value v.
func cell(col int, k, v int64) any {
	switch col {
	case colI32:
		return int32(v)
	case colI64:
		return v*1000 + k
	case colDate:
		return int32(9000 + v%400)
	case colF64:
		return float64(v) / 4
	case colStr:
		return words[v%int64(len(words))]
	default: // colDict
		return words[(v+3)%int64(len(words))]
	}
}

func (in orderedInput) key() expr.Expr {
	if in.key32 {
		return expr.Col(colKey, vector.Int32)
	}
	return expr.Col(colKey, vector.Int64)
}

// allAggs is every AggFunc over every argument kind it accepts.
func allAggs() []AggSpec {
	aggs := []AggSpec{{Func: AggCountStar}}
	for _, arg := range []expr.Expr{expr.Col(colI32, vector.Int32), expr.Col(colI64, vector.Int64),
		expr.Col(colDate, vector.Int32), expr.Col(colF64, vector.Float64)} {
		for _, f := range []AggFunc{AggSum, AggMin, AggMax, AggAvg, AggCountDistinct} {
			aggs = append(aggs, AggSpec{Func: f, Arg: arg})
		}
	}
	for _, arg := range []expr.Expr{expr.Col(colStr, vector.String), expr.Col(colDict, vector.String)} {
		for _, f := range []AggFunc{AggMin, AggMax, AggCountDistinct} {
			aggs = append(aggs, AggSpec{Func: f, Arg: arg})
		}
	}
	return aggs
}

func keyOf(row []any) int64 {
	if k, ok := row[0].(int32); ok {
		return int64(k)
	}
	return row[0].(int64)
}

// model aggregates in's live rows with maps and plain loops, a row per key
// in key order: SUM adds integers as int64 and floats as float64, AVG
// divides that sum by the count (0 for none), MIN/MAX keep the argument's
// type.
func model(in orderedInput, aggs []AggSpec) [][]any {
	var out [][]any
	for lo, hi := 0, 0; lo < len(in.keys); lo = hi {
		for hi = lo; hi < len(in.keys) && in.keys[hi] == in.keys[lo]; hi++ {
		}
		row := []any{in.keys[lo]}
		if in.key32 {
			row[0] = int32(in.keys[lo])
		}
		for _, a := range aggs {
			var xs []any
			if a.Arg != nil {
				col := expr.Columns(a.Arg)[0]
				for r := lo; r < hi; r++ {
					xs = append(xs, cell(col, in.keys[r], in.vals[r]))
				}
			}
			row = append(row, modelAgg(a.Func, xs, hi-lo))
		}
		out = append(out, row)
	}
	return out
}

func modelAgg(f AggFunc, xs []any, n int) any {
	less := func(a, b any) bool {
		switch a := a.(type) {
		case int32:
			return a < b.(int32)
		case int64:
			return a < b.(int64)
		case float64:
			return a < b.(float64)
		default:
			return a.(string) < b.(string)
		}
	}
	var isum int64
	var fsum float64
	for _, x := range xs {
		switch x := x.(type) {
		case int32:
			isum += int64(x)
		case int64:
			isum += x
		case float64:
			fsum += x
		}
	}
	isFloat := false
	if len(xs) > 0 {
		_, isFloat = xs[0].(float64)
	}
	switch f {
	case AggCountStar:
		return int64(n)
	case AggCountDistinct:
		set := map[any]bool{}
		for _, x := range xs {
			set[x] = true
		}
		return int64(len(set))
	case AggMin, AggMax:
		best := xs[0]
		for _, x := range xs[1:] {
			if f == AggMin && less(x, best) || f == AggMax && less(best, x) {
				best = x
			}
		}
		return best
	case AggSum:
		if isFloat {
			return fsum
		}
		return isum
	default: // AggAvg
		if isFloat {
			return fsum / float64(n)
		}
		return float64(isum) / float64(n)
	}
}

// checkOrderedAggr runs both operators over in and fails on any difference
// from the model, in value or in type.
func checkOrderedAggr(t testing.TB, in orderedInput) *OrderedAggr {
	t.Helper()
	aggs := allAggs()
	op := &OrderedAggr{Child: &BatchSource{Batches: in.batches()}, Key: in.key(), Aggs: aggs}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() == 0 || b.Len() > vector.MaxSize {
			t.Fatalf("output batch of %d rows", b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.Row(i))
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	hashed, err := Collect(&HashAggr{Child: &BatchSource{Batches: in.batches()}, Keys: []expr.Expr{in.key()}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(hashed, func(i, j int) bool { return keyOf(hashed[i]) < keyOf(hashed[j]) })
	want := model(in, aggs)
	typed := func(x any) string { return fmt.Sprintf("%T %v", x, x) }
	for name, got := range map[string][][]any{"ordered": got, "hash": hashed} {
		if len(got) != len(want) {
			t.Fatalf("%s aggregation gave %d groups, the model %d", name, len(got), len(want))
		}
		for i := range got {
			for c := range got[i] {
				if g, w := typed(got[i][c]), typed(want[i][c]); g != w {
					t.Fatalf("%s aggregation, group %d, column %d (%v): %s, the model %s", name, i, c, aggs[max(c-1, 0)], g, w)
				}
			}
		}
	}
	return op
}

// runs builds n rows in runs of the given length, keys ascending by step.
func runs(n, run int, step int64) orderedInput {
	in := orderedInput{cuts: map[int]bool{}}
	k := int64(-5)
	for r := 0; r < n; r++ {
		if r%run == 0 {
			k += step
		}
		in.keys = append(in.keys, k)
		in.vals = append(in.vals, int64(r*7%23))
	}
	return in
}

func TestOrderedAggrMatchesHashAggr(t *testing.T) {
	cut := func(in orderedInput, every int) orderedInput {
		for r := every - 1; r < len(in.keys); r += every {
			in.cuts[r] = true
		}
		return in
	}
	for _, tc := range []struct {
		name string
		in   orderedInput
	}{
		{"groups span batches", cut(runs(500, 13, 1), 7)},
		{"one-row groups", cut(runs(2500, 1, 3), vector.MaxSize)},
		{"one group", cut(runs(3000, 3000, 1), 100)},
		{"groups fill output batches exactly", cut(runs(2*vector.MaxSize, 1, 1), 300)},
		{"empty input", runs(0, 1, 1)},
		{"one row", runs(1, 1, 1)},
	} {
		for _, key32 := range []bool{false, true} {
			for _, sel := range []bool{false, true} {
				in := tc.in
				in.key32, in.sel = key32, sel
				t.Run(fmt.Sprintf("%s/key32=%v/sel=%v", tc.name, key32, sel), func(t *testing.T) {
					checkOrderedAggr(t, in)
				})
			}
		}
	}
}

// TestAggrWithoutAggregates: GROUP BY with no aggregate emits one row per
// group (HashAggr used to emit none: it counted groups by their states).
func TestAggrWithoutAggregates(t *testing.T) {
	in := runs(50, 5, 1)
	for _, op := range []Operator{
		&HashAggr{Child: &BatchSource{Batches: in.batches()}, Keys: []expr.Expr{in.key()}},
		&OrderedAggr{Child: &BatchSource{Batches: in.batches()}, Key: in.key()},
	} {
		rows, err := Collect(op)
		if err != nil || len(rows) != 10 {
			t.Fatalf("%T: %d groups, err %v; want 10", op, len(rows), err)
		}
	}
}

// TestOrderedAggrStateBounded: state is one output batch of groups, not the
// group count, and COUNT(DISTINCT) holds the open group's values, deduplicated
// in place as they grow, not the group's rows: one group of 20 batches over
// 8 values buffers at most 2 × vector.MaxSize.
func TestOrderedAggrStateBounded(t *testing.T) {
	fewValues := runs(20*vector.MaxSize, 20*vector.MaxSize, 1)
	for r := range fewValues.vals {
		fewValues.vals[r] = int64(r % 8)
	}
	for name, in := range map[string]orderedInput{
		"two-row groups":          runs(20*vector.MaxSize, 2, 1),
		"one group over 8 values": fewValues,
	} {
		in.cuts = map[int]bool{}
		for r := 999; r < len(in.keys); r += 1000 {
			in.cuts[r] = true
		}
		op := checkOrderedAggr(t, in)
		for ai, acc := range op.accs {
			if c := stateCap(reflect.ValueOf(acc)); c > 2*vector.MaxSize {
				t.Fatalf("%s: aggregate %d holds state for %d groups", name, ai, c)
			}
			if op.Aggs[ai].Func != AggCountDistinct {
				continue
			}
			if vals := reflect.ValueOf(acc).Elem().FieldByName("vals"); !vals.IsValid() {
				t.Fatalf("%s: aggregate %d (%v) is a %T, not a run state", name, ai, op.Aggs[ai], acc)
			} else if vals.Cap() > 2*vector.MaxSize {
				t.Fatalf("%s: aggregate %d (%v) buffered %d values", name, ai, op.Aggs[ai], vals.Cap())
			}
		}
	}
}

// TestCountDistinctEqualityParity: both operators count COUNT(DISTINCT) by
// the dedup table's equality, which the map model cannot check: floats
// bitwise (+0 and -0 differ, a NaN equals the same NaN), strings by value
// whether dictionary-coded or not.
func TestCountDistinctEqualityParity(t *testing.T) {
	dict := &compress.StrDict{Values: []string{"oak", "elm", "ash"}}
	for _, tc := range []struct {
		name    string
		kind    vector.Kind
		batches func() []*vector.Batch
		want    [][]any
	}{
		{"float64 bits", vector.Float64, func() []*vector.Batch {
			nan := math.NaN()
			return []*vector.Batch{vector.NewBatch(vector.FromInt64([]int64{1, 1, 1, 1, 1, 1}),
				vector.FromFloat64([]float64{0, math.Copysign(0, -1), nan, nan, 1.5, 1.5}))}
		}, [][]any{{int64(1), int64(4)}}},
		{"strings coded, then materialized", vector.String, func() []*vector.Batch {
			return []*vector.Batch{
				vector.NewBatch(vector.FromInt64([]int64{1, 1, 1}), vector.FromDictCodes([]uint32{0, 1, 0}, dict)),
				vector.NewBatch(vector.FromInt64([]int64{1, 1, 2}), vector.FromString([]string{"elm", "fir", "oak"})),
			}
		}, [][]any{{int64(1), int64(3)}, {int64(2), int64(1)}}},
	} {
		key, aggs := expr.Col(0, vector.Int64), []AggSpec{{Func: AggCountDistinct, Arg: expr.Col(1, tc.kind)}}
		for _, op := range []Operator{
			&OrderedAggr{Child: &BatchSource{Batches: tc.batches()}, Key: key, Aggs: aggs},
			&HashAggr{Child: &BatchSource{Batches: tc.batches()}, Keys: []expr.Expr{key}, Aggs: aggs},
		} {
			if got, err := Collect(op); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s, %T: %v (err %v), want %v", tc.name, op, got, err, tc.want)
			}
		}
	}
}

// TestOrderedDistinctFoldAllocs: once its buffers have grown, the run state
// folds a further batch without allocating, groups completing, a group
// continuing and an in-place dedup included. Run i folds groups 3i to 3i+2
// (3i-1, left open by run i-1, completes), then a batch more of group 3i+2.
func TestOrderedDistinctFoldAllocs(t *testing.T) {
	const runs = 25 // AllocsPerRun(20, f) calls f 21 times
	n := vector.MaxSize
	i32, f64, strs, codes := make([]int32, n), make([]float64, n), make([]string, n), make([]uint32, n)
	for r := range n {
		i32[r], f64[r], strs[r], codes[r] = int32(r%50), float64(r%50)/4, words[r%len(words)], uint32(r%len(words))
	}
	var starts, continues [runs][]int32
	for i := range runs {
		starts[i], continues[i] = make([]int32, n), make([]int32, n)
		for r := range n {
			starts[i][r], continues[i][r] = int32(3*i+r*3/n), int32(3*i+2)
		}
	}
	for _, arg := range []*vector.Vec{vector.FromInt32(i32), vector.FromFloat64(f64), vector.FromString(strs),
		vector.FromDictCodes(codes, &compress.StrDict{Values: words})} {
		want := int64(50)
		if arg.Kind() == vector.String {
			want = int64(len(words))
		}
		acc, err := (&aggAcc{}).newAccum(AggSpec{Func: AggCountDistinct, Arg: expr.Col(0, arg.Kind())}, true)
		if err != nil {
			t.Fatal(err)
		}
		acc.grow(3 * runs)
		i := 0
		fold := func() {
			acc.fold(arg, starts[i], int32(3*i))
			acc.fold(arg, continues[i], int32(3*i+3))
			i++
		}
		if a := testing.AllocsPerRun(20, fold); a != 0 {
			t.Errorf("%v (dictionary %v): a warm fold allocates %.1f objects", arg.Kind(), arg.IsDict(), a)
		}
		if got := acc.result(0, 3).Int64s(); !slices.Equal(got, []int64{want, want, want}) {
			t.Errorf("%v (dictionary %v): counts %v, want %d each", arg.Kind(), arg.IsDict(), got, want)
		}
	}
}

// stateCap is the largest capacity among the state columns in v.
func stateCap(v reflect.Value) (c int) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return stateCap(v.Elem())
	case reflect.Slice:
		return v.Cap()
	case reflect.Struct:
		for i := range v.NumField() {
			c = max(c, stateCap(v.Field(i)))
		}
	}
	return c
}

// FuzzOrderedAggr: key steps, values and batch cuts from the fuzzer, one
// byte triple per row; both aggregations must equal the model.
func FuzzOrderedAggr(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 0, 3, 5, 2, 4, 0}, false, false)
	f.Add([]byte{1, 9, 5, 0, 9, 5, 0, 9, 5, 1, 1, 0}, true, true)
	f.Fuzz(func(t *testing.T, data []byte, key32, sel bool) {
		in := orderedInput{cuts: map[int]bool{}, key32: key32, sel: sel}
		k := int64(-3)
		for i := 0; i+2 < len(data) && len(in.keys) < 4*vector.MaxSize; i += 3 {
			k += int64(data[i] % 4)
			in.keys = append(in.keys, k)
			in.vals = append(in.vals, int64(data[i+1]))
			in.cuts[len(in.keys)-1] = data[i+2]%5 == 0
		}
		checkOrderedAggr(t, in)
	})
}
