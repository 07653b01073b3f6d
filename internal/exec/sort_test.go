package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// Sort and TopN are checked against a plain stable sort of boxed rows with
// cmp.Compare per key: every key kind, descending keys, NaN, ±0 and ±Inf,
// shared string prefixes, input cut into batches with and without a
// selection, and presorted, reversed, interleaved-run and all-tie arrival
// orders. The row's arrival index rides along as the last column, so a
// reordering of ties shows.

// TestSortOrdersNaNFirst: NaN sorts before every other float, as
// cmp.Compare orders it, and does not leave the other values unsorted.
func TestSortOrdersNaNFirst(t *testing.T) {
	b := vector.NewBatch(vector.FromFloat64([]float64{2, 1, math.NaN(), 0, -1}))
	for _, desc := range []bool{false, true} {
		rows, err := Collect(&Sort{Child: &BatchSource{Batches: []*vector.Batch{b}},
			Keys: []SortKey{{Expr: expr.Col(0, vector.Float64), Desc: desc}}})
		if err != nil {
			t.Fatal(err)
		}
		want := "[[NaN] [-1] [0] [1] [2]]"
		if desc {
			want = "[[2] [1] [0] [-1] [NaN]]"
		}
		if got := fmt.Sprint(rows); got != want {
			t.Fatalf("desc=%v: %s, want %s", desc, got, want)
		}
	}
}

// TestSortWithoutKeys: with no key every row ties, so Sort and TopN keep
// the arrival order.
func TestSortWithoutKeys(t *testing.T) {
	in := func() Operator {
		return &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64([]int64{3, 1, 2}))}}
	}
	for want, op := range map[string]Operator{"[[3] [1] [2]]": &Sort{Child: in()}, "[[3] [1]]": &TopN{Child: in(), N: 2}} {
		rows, err := Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != want {
			t.Fatalf("%T: %s, want %s", op, got, want)
		}
	}
}

// sortKinds are the kinds a fuzzed key takes; sortValue maps a byte to one
// of a few values of each, so keys tie often.
var sortKinds = []vector.Kind{vector.Int32, vector.Int64, vector.Float64, vector.String, vector.Bool}

var (
	sortInt32s   = []int32{math.MinInt32, -7, -1, 0, 1, 2, 3, 8, 100, math.MaxInt32}
	sortInt64s   = []int64{math.MinInt64, -1 << 40, -3, 0, 1, 5, 1 << 33, math.MaxInt64}
	sortFloat64s = []float64{math.NaN(), math.Inf(-1), -1e300, -1.5, math.Copysign(0, -1), 0, 1e-300, 0.5, 2, math.Inf(1)}
	sortStrings  = []string{"", "\x00", "a", "a\x00", "aa", "aab", "ab", "abc", "abd", "b", "ba", "\xff"}
)

func sortValue(k vector.Kind, b byte) any {
	switch k {
	case vector.Int32:
		return sortInt32s[int(b)%len(sortInt32s)]
	case vector.Int64:
		return sortInt64s[int(b)%len(sortInt64s)]
	case vector.Float64:
		return sortFloat64s[int(b)%len(sortFloat64s)]
	case vector.String:
		return sortStrings[int(b)%len(sortStrings)]
	}
	return b&1 == 1
}

func compareBoxed(a, b any) int {
	switch x := a.(type) {
	case int32:
		return cmp.Compare(x, b.(int32))
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return cmp.Compare(x, b.(string))
	case bool:
		switch y := b.(bool); {
		case x == y:
			return 0
		case x:
			return 1
		}
		return -1
	}
	panic(fmt.Sprintf("compareBoxed: %T", a))
}

// sortModel sorts boxed rows stably by their first len(desc) columns.
func sortModel(rows [][]any, desc []bool) {
	slices.SortStableFunc(rows, func(a, b []any) int {
		for k, d := range desc {
			if c := compareBoxed(a[k], b[k]); c != 0 {
				if d {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

// Arrival orders of a fuzzed input.
const (
	asDrawn = iota
	presorted
	reversed
	interleavedRuns
	allTies
	numShapes
)

// sortBatches cuts rows into batches: a batch ends after row i when
// cuts[i%len(cuts)]%5 == 0; with sel every live row follows a dead one, a
// row of other values that only the selection hides.
func sortBatches(kinds []vector.Kind, rows [][]any, cuts []byte, sel bool) []*vector.Batch {
	var out []*vector.Batch
	var cur *vector.Batch
	for i, r := range rows {
		if cur == nil {
			cur = &vector.Batch{}
			for _, k := range kinds {
				cur.Vecs = append(cur.Vecs, vector.New(k, 0))
			}
			if sel {
				cur.Sel = []int32{}
			}
		}
		if sel {
			for c, k := range kinds {
				cur.Vecs[c].AppendAny(sortValue(k, byte(i*7+c)))
			}
			cur.Sel = append(cur.Sel, int32(cur.Vecs[0].Len()))
		}
		for c, v := range r {
			cur.Vecs[c].AppendAny(v)
		}
		if len(cuts) > 0 && cuts[i%len(cuts)]%5 == 0 || i == len(rows)-1 {
			out = append(out, cur)
			cur = nil
		}
	}
	return out
}

// FuzzSort: nkeys, kinds and desc pick 1–3 keys, their kinds and
// directions; n rows take their key bytes cyclically from data, shape
// rearranges them, and data also cuts the batches. Sort's rows must equal
// the model's and TopN's its first top rows.
func FuzzSort(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(0), uint16(2), uint8(0), uint8(asDrawn), uint16(40), uint16(7), false)
	f.Add([]byte{0, 9, 4, 4, 2, 7, 1, 0}, uint8(2), uint16(2+5*3+25*0), uint8(5), uint8(reversed), uint16(300), uint16(299), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(1), uint16(3+5*1), uint8(2), uint8(interleavedRuns), uint16(2500), uint16(1025), true)
	f.Add([]byte{7, 7, 7}, uint8(1), uint16(4+5*2), uint8(1), uint8(allTies), uint16(100), uint16(0), false)
	f.Add([]byte{5, 0, 2, 8}, uint8(0), uint16(3), uint8(1), uint8(presorted), uint16(1500), uint16(3000), false)
	f.Fuzz(func(t *testing.T, data []byte, nkeys uint8, kindBits uint16, descBits, shape uint8, n, top uint16, sel bool) {
		if len(data) == 0 {
			return
		}
		var kinds []vector.Kind
		var desc []bool
		for k := 0; k < 1+int(nkeys)%3; k++ {
			kinds = append(kinds, sortKinds[int(kindBits)/[]int{1, 5, 25}[k]%5])
			desc = append(desc, descBits>>k&1 == 1)
		}
		rows := make([][]any, int(n)%(3*vector.MaxSize))
		for i := range rows {
			for c, k := range kinds {
				at := i*len(kinds) + c
				rows[i] = append(rows[i], sortValue(k, data[at%len(data)]+byte(at/len(data))))
			}
		}
		switch shape % numShapes {
		case presorted:
			sortModel(rows, desc)
		case reversed:
			sortModel(rows, desc)
			slices.Reverse(rows)
		case interleavedRuns:
			sortModel(rows, desc)
			runs := 2 + int(data[0])%4
			var dealt [][]any
			for r := range runs {
				for i := r; i < len(rows); i += runs {
					dealt = append(dealt, rows[i])
				}
			}
			rows = dealt
		case allTies:
			for i := range rows {
				copy(rows[i], rows[0])
			}
		}
		for i := range rows {
			rows[i] = append(rows[i], int64(i))
		}
		cols := append(slices.Clone(kinds), vector.Int64)
		batches := sortBatches(cols, rows, data, sel)
		keys := make([]SortKey, len(kinds))
		for k, kind := range kinds {
			keys[k] = SortKey{Expr: expr.Col(k, kind), Desc: desc[k]}
		}
		sortModel(rows, desc)
		want := fmt.Sprint(rows)

		got, err := Collect(&Sort{Child: &BatchSource{Batches: batches}, Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		if g := fmt.Sprint(got); g != want {
			t.Fatalf("Sort:\n got %s\nwant %s", g, want)
		}
		topN := int(top) % (len(rows) + 2)
		got, err = Collect(&TopN{Child: &BatchSource{Batches: batches}, Keys: keys, N: topN})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(got), fmt.Sprint(rows[:min(topN, len(rows))]); g != w {
			t.Fatalf("TopN(%d):\n got %s\nwant %s", topN, g, w)
		}
	})
}

// BenchmarkSort sorts 45,000 rows by an (Int64, Int32) key, the shape of
// `order by l_orderkey, l_linenumber`, arriving in random order, presorted,
// as 12 ascending runs (W3's arrival at SF 0.05) and reversed.
func BenchmarkSort(b *testing.B) {
	const n = 45000
	arrivals := map[string][]int{"random": rand.New(rand.NewSource(1)).Perm(n)}
	for i := range n {
		arrivals["presorted"] = append(arrivals["presorted"], i)
		arrivals["reversed"] = append(arrivals["reversed"], n-1-i)
	}
	for r := range 12 {
		for i := r; i < n; i += 12 {
			arrivals["runs12"] = append(arrivals["runs12"], i)
		}
	}
	keys := []SortKey{{Expr: expr.Col(0, vector.Int64)}, {Expr: expr.Col(1, vector.Int32)}}
	prog, err := compileSortKeys(keys)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"random", "presorted", "runs12", "reversed"} {
		orderkey, linenumber := vector.New(vector.Int64, n), vector.New(vector.Int32, n)
		for _, i := range arrivals[name] {
			orderkey.AppendAny(int64(i / 4))
			linenumber.AppendAny(int32(i % 4))
		}
		batch := vector.NewBatch(orderkey, linenumber)
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				if _, err := sortPerm(batch, keys, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
