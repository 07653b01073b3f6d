package exec

import (
	"fmt"
	"testing"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// MergeJoin and HashJoin are checked against the join's definition run as
// nested loops over the live rows: every join type, Int32 and Int64 keys,
// keys repeating on both sides, runs crossing batch boundaries, empty and
// fully filtered batches and selection-bearing inputs.

// mergeRow is one live input row: its key and a value its payload columns
// derive from.
type mergeRow struct{ key, val int64 }

// mergeInput is one ordered join input: its live rows, batch by batch (a
// batch may hold none), the key as Int32 or Int64 and, with sel, each live
// row following a dead one (out of key order, other values) that only a
// selection vector hides, which makes an empty batch a fully filtered one.
type mergeInput struct {
	batches    [][]mergeRow
	key32, sel bool
}

// The columns of a mergeInput batch: the key, an Int64 and a String.
func mergeKinds(key32 bool) []vector.Kind {
	if key32 {
		return []vector.Kind{vector.Int32, vector.Int64, vector.String}
	}
	return []vector.Kind{vector.Int64, vector.Int64, vector.String}
}

func (in mergeInput) row(r mergeRow) []any {
	var k any = r.key
	if in.key32 {
		k = int32(r.key)
	}
	return []any{k, r.val*10 + r.key, words[r.val%int64(len(words))]}
}

// source replays the input's batches, empty ones included (a BatchSource
// skips those).
func (in mergeInput) source() Operator {
	var out []*vector.Batch
	for _, rows := range in.batches {
		b := vector.NewBatch(vector.New(mergeKinds(in.key32)[0], 0), vector.New(vector.Int64, 0), vector.New(vector.String, 0))
		add := func(r mergeRow) {
			for i, v := range in.row(r) {
				b.Vecs[i].AppendAny(v)
			}
		}
		if in.sel {
			b.Sel = []int32{}
		}
		for _, r := range rows {
			if in.sel {
				add(mergeRow{-r.key - 1, r.val + 1})
				b.Sel = append(b.Sel, int32(b.Vecs[0].Len()))
			}
			add(r)
		}
		out = append(out, b)
	}
	return &FuncSource{NextFn: func() (*vector.Batch, error) {
		if len(out) == 0 {
			return nil, nil
		}
		b := out[0]
		out = out[1:]
		return b, nil
	}}
}

func (in mergeInput) rows() []mergeRow {
	var all []mergeRow
	for _, b := range in.batches {
		all = append(all, b...)
	}
	return all
}

// nestedLoopJoin is the model: for each left row in order, the right rows
// with its key in order.
func nestedLoopJoin(jt JoinType, left, right mergeInput) []string {
	var out []string
	zero := []any{int64(0), int64(0), ""}
	if right.key32 {
		zero[0] = int32(0)
	}
	for _, l := range left.rows() {
		matched := false
		for _, r := range right.rows() {
			if l.key != r.key {
				continue
			}
			matched = true
			switch jt {
			case Inner:
				out = append(out, fmt.Sprint(append(left.row(l), right.row(r)...)))
			case LeftOuter:
				out = append(out, fmt.Sprint(append(append(left.row(l), right.row(r)...), true)))
			}
		}
		switch {
		case jt == LeftOuter && !matched:
			out = append(out, fmt.Sprint(append(append(left.row(l), zero...), false)))
		case jt == Semi && matched, jt == Anti && !matched:
			out = append(out, fmt.Sprint(left.row(l)))
		}
	}
	return out
}

// newJoin joins probe with build on their keys, of one kind: a MergeJoin
// with probe as its left side, or a HashJoin.
func newJoin(merge bool, jt JoinType, probe, build Operator, key32 bool) Operator {
	kinds := mergeKinds(key32)
	if merge {
		return &MergeJoin{Left: probe, Right: build, Type: jt, RightKinds: kinds}
	}
	key := []expr.Expr{expr.Col(0, kinds[0])}
	return &HashJoin{Probe: probe, Build: NewBuildSide(build, key, kinds, 1), ProbeKeys: key, Type: jt}
}

// checkJoin runs the join of left and right, MergeJoin or HashJoin, and
// compares its rows with the nested loops' in order.
func checkJoin(t testing.TB, merge bool, jt JoinType, left, right mergeInput) {
	t.Helper()
	got := collectChecked(t, newJoin(merge, jt, left.source(), right.source(), left.key32))
	want := nestedLoopJoin(jt, left, right)
	name := map[bool]string{false: "hash", true: "merge"}[merge]
	if len(got) != len(want) {
		t.Fatalf("join type %d: %s join gave %d rows, nested loops %d", jt, name, len(got), len(want))
	}
	for i := range got {
		if g := fmt.Sprint(got[i]); g != want[i] {
			t.Fatalf("join type %d: row %d differs:\n %-6s %s\n nested %s", jt, i, name, g, want[i])
		}
	}
}

// collectChecked is Collect that also checks every output batch's lengths.
func collectChecked(t testing.TB, op Operator) [][]any {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var rows [][]any
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		checkLengths(t, b)
		rows = vector.BoxRows(rows, b)
	}
}

// checkLengths fails when b's vectors differ in length or its selection
// points past them.
func checkLengths(t testing.TB, b *vector.Batch) {
	t.Helper()
	if err := lengthsErr(b); err != nil {
		t.Fatal(err)
	}
}

// lengthsErr is checkLengths' test as an error, for operators drained off
// the test's goroutine.
func lengthsErr(b *vector.Batch) error {
	n := b.Col(0).Len()
	for i, v := range b.Vecs {
		if v.Len() != n {
			return fmt.Errorf("output column %d holds %d rows, column 0 %d", i, v.Len(), n)
		}
	}
	for _, r := range b.Sel {
		if int(r) >= n {
			return fmt.Errorf("selection row %d past %d rows", r, n)
		}
	}
	return nil
}

// mergeRuns is n rows in batches of cut rows, keys ascending from first by
// step after every run rows.
func mergeRuns(n, run, cut int, first, step int64) [][]mergeRow {
	batches := [][]mergeRow{nil}
	k := first
	for r := 0; r < n; r++ {
		if r > 0 && r%run == 0 {
			k += step
		}
		last := len(batches) - 1
		batches[last] = append(batches[last], mergeRow{k, int64(r % 17)})
		if (r+1)%cut == 0 {
			batches = append(batches, nil)
		}
	}
	return batches
}

func TestMergeJoinMatchesNestedLoops(t *testing.T) {
	empty := [][]mergeRow{nil, {}, nil}
	for _, tc := range []struct {
		name        string
		left, right [][]mergeRow
	}{
		{"unique right, runs cross batches", mergeRuns(3000, 4, 1000, 0, 1), mergeRuns(900, 1, 300, 0, 1)},
		{"many to many across batches", mergeRuns(300, 7, 64, 0, 2), mergeRuns(200, 5, 9, 1, 3)},
		{"window retires more than a batch", mergeRuns(2500, 1, vector.MaxSize, 0, 1), mergeRuns(2500, 1, 7, 0, 1)},
		{"one key both sides", mergeRuns(40, 40, 7, 5, 1), mergeRuns(30, 30, 4, 5, 1)},
		{"disjoint keys", mergeRuns(50, 1, 8, 0, 2), mergeRuns(50, 1, 8, 1, 2)},
		{"empty right", mergeRuns(50, 3, 8, 0, 1), empty},
		{"empty left", empty, mergeRuns(50, 3, 8, 0, 1)},
	} {
		for _, jt := range []JoinType{Inner, LeftOuter, Semi, Anti} {
			for _, key32 := range []bool{false, true} {
				for _, sel := range []bool{false, true} {
					left := mergeInput{batches: tc.left, key32: key32, sel: sel}
					right := mergeInput{batches: tc.right, key32: key32, sel: !sel}
					t.Run(fmt.Sprintf("%s/type=%d/key32=%v/leftsel=%v", tc.name, jt, key32, sel), func(t *testing.T) {
						checkJoin(t, true, jt, left, right)
						checkJoin(t, false, jt, left, right)
					})
				}
			}
		}
	}
}

// FuzzMergeJoin: one byte triple per row picks its side and key step, its
// value, and whether its batch ends after it, followed by an empty one; the
// result must equal the nested loops'.
func FuzzMergeJoin(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 0, 3, 5, 3, 4, 0, 2, 9, 1, 1, 7, 2}, uint8(0), false, false, true)
	f.Add([]byte{1, 9, 5, 0, 9, 5, 0, 9, 0, 1, 1, 1, 3, 1, 0, 4, 2, 9}, uint8(1), true, true, false)
	f.Add([]byte{0, 1, 1, 0, 2, 0, 2, 3, 1, 0, 4, 2}, uint8(3), false, true, true)
	f.Fuzz(func(t *testing.T, data []byte, jt uint8, key32, lsel, rsel bool) {
		sides := [2]mergeInput{
			{batches: [][]mergeRow{nil}, key32: key32, sel: lsel},
			{batches: [][]mergeRow{nil}, key32: key32, sel: rsel},
		}
		keys := [2]int64{-3, -3}
		for i := 0; i+2 < len(data) && i < 12*vector.MaxSize; i += 3 {
			s := &sides[data[i]&1]
			keys[data[i]&1] += int64(data[i]>>1) % 3
			last := len(s.batches) - 1
			s.batches[last] = append(s.batches[last], mergeRow{keys[data[i]&1], int64(data[i+1])})
			switch data[i+2] % 8 {
			case 0:
				s.batches = append(s.batches, nil)
			case 1:
				s.batches = append(s.batches, nil, nil)
			}
		}
		checkJoin(t, true, JoinType(jt%4), sides[0], sides[1])
	})
}
