package exec

import (
	"fmt"
	"sort"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// OrderedAggr is checked against HashAggr on the same sorted input: the two
// must agree row for row, and the ordered one must emit its groups in key
// order, at most one output batch at a time.

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
		keys, i32, i64 = append(keys, k), append(i32, int32(v)), append(i64, v*1000+k)
		dates, f64 = append(dates, int32(9000+v%400)), append(f64, float64(v)/4)
		strs, codes = append(strs, words[v%int64(len(words))]), append(codes, uint32((v+3)%int64(len(words))))
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
		for _, f := range []AggFunc{AggSum, AggCount, AggMin, AggMax, AggAvg, AggCountDistinct} {
			aggs = append(aggs, AggSpec{Func: f, Arg: arg})
		}
	}
	for _, arg := range []expr.Expr{expr.Col(colStr, vector.String), expr.Col(colDict, vector.String)} {
		for _, f := range []AggFunc{AggCount, AggMin, AggMax, AggCountDistinct} {
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

// checkOrderedAggr runs both operators over in and fails on any difference.
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
	want, err := Collect(&HashAggr{Child: &BatchSource{Batches: in.batches()}, Keys: []expr.Expr{in.key()}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool { return keyOf(want[i]) < keyOf(want[j]) })
	if len(got) != len(want) {
		t.Fatalf("ordered aggregation gave %d groups, hash aggregation %d", len(got), len(want))
	}
	for i := range got {
		if g, w := fmt.Sprint(got[i]), fmt.Sprint(want[i]); g != w {
			t.Fatalf("group %d differs:\n ordered %s\n hash    %s", i, g, w)
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
// group count.
func TestOrderedAggrStateBounded(t *testing.T) {
	in := runs(20*vector.MaxSize, 2, 1)
	in.cuts = map[int]bool{}
	for r := 999; r < len(in.keys); r += 1000 {
		in.cuts[r] = true
	}
	op := checkOrderedAggr(t, in)
	for ai, s := range op.states {
		if cap(s) > 2*vector.MaxSize {
			t.Fatalf("aggregate %d holds state for %d groups", ai, cap(s))
		}
	}
	for ai, dt := range op.distinct {
		if dt != nil && len(dt.buckets) > 8*vector.MaxSize {
			t.Fatalf("aggregate %d's dedup table has %d buckets", ai, len(dt.buckets))
		}
	}
}

// FuzzOrderedAggr: key steps, values and batch cuts from the fuzzer, one
// byte triple per row; the result must equal HashAggr's.
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
