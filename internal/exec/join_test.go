package exec

import (
	"fmt"
	"slices"
	"testing"

	"vectorh/internal/vector"
)

// TestJoinPassesProbeThrough: an Inner or LeftOuter output batch that emits
// each probe row at most once, in order, and at least one physical row in
// passThroughDensity holds the probe batch's own vectors under a selection of
// the emitted rows, none when that is every row; a repeated probe row or a
// sparser batch gathers. HashJoin and MergeJoin both emit through joinOutput.
// On either path a HashJoin's String build column leaves as codes over its
// build side's dictionary; a MergeJoin's window is not frozen, so it copies.
func TestJoinPassesProbeThrough(t *testing.T) {
	const n = 64
	keys := func(step int64, extra ...int64) [][]mergeRow {
		var rows []mergeRow
		for k := int64(0); k < n; k += step {
			rows = append(rows, mergeRow{k, k % 5})
			if slices.Contains(extra, k) {
				rows = append(rows, mergeRow{k, k%5 + 1})
			}
		}
		return [][]mergeRow{rows}
	}
	for _, tc := range []struct {
		name    string
		jt      JoinType
		right   [][]mergeRow
		through bool // for a probe batch without a selection
		live    int  // the output's live rows
	}{
		{"unique build, every row matches", Inner, keys(1), true, n},
		{"unique build, at the density bound", Inner, keys(passThroughDensity), true, n / passThroughDensity},
		{"unique build, below the density bound", Inner, keys(passThroughDensity * 2), false, n / passThroughDensity / 2},
		{"a repeated probe row", Inner, keys(1, 7), false, n + 1},
		{"left outer, half matched", LeftOuter, keys(2), true, n},
		{"left outer, nothing to match", LeftOuter, [][]mergeRow{nil}, true, n},
	} {
		for _, merge := range []bool{false, true} {
			for _, sel := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/merge=%v/sel=%v", tc.name, merge, sel), func(t *testing.T) {
					left := mergeInput{batches: keys(1), sel: sel}
					right := mergeInput{batches: tc.right}
					probe := &keepingSource{Operator: left.source()}
					op := newJoin(merge, tc.jt, probe, right.source(), false)
					if err := op.Open(); err != nil {
						t.Fatal(err)
					}
					defer op.Close()
					out, err := op.Next()
					if err != nil {
						t.Fatal(err)
					}
					checkLengths(t, out)
					if out.Len() != tc.live {
						t.Fatalf("%d live rows, want %d", out.Len(), tc.live)
					}
					// A selection-bearing probe batch holds a dead row before
					// each live one, which halves its density.
					through := tc.through && (!sel || tc.live*passThroughDensity >= 2*n)
					in := probe.emitted[0]
					for i, v := range in.Vecs {
						if (out.Vecs[i] == v) != through {
							t.Fatalf("probe column %d passed through: %v, want %v", i, out.Vecs[i] == v, through)
						}
					}
					if through && tc.jt == LeftOuter && (out.Sel == nil) != (in.Sel == nil) {
						t.Fatalf("left outer over every probe row: Sel %v, probe Sel %v", out.Sel, in.Sel)
					}
					if through && tc.live == n && !sel && out.Sel != nil {
						t.Fatalf("every physical row emitted, yet Sel = %v", out.Sel)
					}
					if hj, ok := op.(*HashJoin); ok != out.Vecs[5].IsDict() || ok && out.Vecs[5].Dict() != hj.dicts[2] {
						t.Fatalf("build String column as codes: %v, want %v over the build side's dictionary", out.Vecs[5].IsDict(), ok)
					}
					checkJoin(t, merge, tc.jt, left, right)
				})
			}
		}
	}
}

// FuzzHashJoin: one byte triple per row picks its side and key, in any
// order, its value, and whether its batch ends after it, followed by an
// empty one; the fuzzer also picks the join type, whether build keys may
// repeat (a unique build drops a row whose key it holds), selections on
// either side and whether keys are wide. The probe batches are dealt in turn
// to two streams whose HashJoins share one build side and run at once; each
// stream's live rows must equal the nested loops' over its batches, in probe
// order, and the two together the nested loops' over the whole probe input.
// The build must call itself unique exactly when no key repeats. Keys span
// 0–127, so a batch's matches fall on either side of passThroughDensity;
// wide keys take five more bits from the third byte, 0–4095, so that a
// unique build can outgrow a vector.MaxSize window. Both sides carry a
// String column, which a hash join emits as codes over the build column.
// The committed corpus holds a unique build with dense and with sparse
// matches, a duplicated build, a LeftOuter join matching nothing, an empty
// build side, an inner join whose probe batches go to both streams, a
// unique LeftOuter build whose keys share buckets, and a build repeating
// one key past a window of distinct ones.
func FuzzHashJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, jt uint8, key32, dup, lsel, rsel, wide bool) {
		sides := [2]mergeInput{
			{batches: [][]mergeRow{nil}, key32: key32, sel: lsel},
			{batches: [][]mergeRow{nil}, key32: key32, sel: rsel},
		}
		built := map[int64]bool{}
		unique := true
		for i := 0; i+2 < len(data) && i < 12*vector.MaxSize; i += 3 {
			side, k := data[i]&1, int64(data[i]>>1)
			if wide {
				k |= int64(data[i+2]>>3) << 7
			}
			if side == 1 {
				if built[k] && !dup {
					continue
				}
				unique = unique && !built[k]
				built[k] = true
			}
			s := &sides[side]
			last := len(s.batches) - 1
			s.batches[last] = append(s.batches[last], mergeRow{k, int64(data[i+1])})
			switch data[i+2] % 8 {
			case 0:
				s.batches = append(s.batches, nil)
			case 1:
				s.batches = append(s.batches, nil, nil)
			}
		}
		if side := checkSharedJoin(t, JoinType(jt%4), sides[0], sides[1]); side.Unique() != unique {
			t.Fatalf("build side unique = %v, want %v", side.Unique(), unique)
		}
	})
}

// checkSharedJoin deals left's batches in turn to two probe streams over one
// build side on right, drains them on their own goroutines and compares each
// with the nested loops over its batches, in order, and their union with
// the nested loops over all of left. It returns the build side.
func checkSharedJoin(t *testing.T, jt JoinType, left, right mergeInput) *BuildSide {
	t.Helper()
	parts := []mergeInput{{key32: left.key32, sel: left.sel}, {key32: left.key32, sel: left.sel}}
	for i, b := range left.batches {
		parts[i%2].batches = append(parts[i%2].batches, b)
	}
	joins, side, _ := sharedJoins(jt, right, parts, -1, nil)
	got := make([][]string, len(parts))
	errs := make([]error, len(parts))
	runAll(t, len(parts), func(i int) { got[i], errs[i] = drain(joins[i]) })
	var union []string
	for i, part := range parts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if want := nestedLoopJoin(jt, part, right); !slices.Equal(got[i], want) {
			t.Fatalf("join type %d: stream %d gave %d rows, nested loops %d:\n got  %v\n want %v",
				jt, i, len(got[i]), len(want), got[i], want)
		}
		union = append(union, got[i]...)
	}
	want := nestedLoopJoin(jt, left, right)
	slices.Sort(union)
	slices.Sort(want)
	if !slices.Equal(union, want) {
		t.Fatalf("join type %d: the streams gave %d rows together, nested loops %d", jt, len(union), len(want))
	}
	return side
}
