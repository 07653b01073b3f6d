//go:build vectorh_debug

package exec

import (
	"strings"
	"testing"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// TestOrderAssertions: under vectorh_debug, the operators that rely on their
// input's key order panic on a key that goes down instead of answering wrong.
func TestOrderAssertions(t *testing.T) {
	keys := func(ks ...int64) Operator {
		return &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64(ks))}}
	}
	k := expr.Col(0, vector.Int64)
	for _, tc := range []struct {
		want string
		op   Operator
	}{
		{"ordered aggregation key 2 after 3",
			&OrderedAggr{Child: keys(1, 3, 2), Key: k, Aggs: []AggSpec{{Func: AggCountStar}}}},
		{"merge join left key 2 after 3",
			&MergeJoin{Left: keys(1, 3, 2), Right: keys(1, 2, 3)}},
		{"merge join right key 1 after 3",
			&MergeJoin{Left: keys(1, 2, 3, 4), Right: keys(3, 1)}},
	} {
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg, _ = r.(string)
				}
			}()
			_, _ = Collect(tc.op)
		}()
		if !strings.Contains(msg, tc.want) {
			t.Errorf("panic %q, want one naming %q", msg, tc.want)
		}
	}
	// In order, nothing fires.
	if _, err := Collect(&MergeJoin{Left: keys(1, 2, 2, 3), Right: keys(2, 3)}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildSideClosedOncePerUser: after its last user closes, a build side
// holds no table and no build columns, and under vectorh_debug one close
// more than it has users panics, as releasing a scan pin below zero does.
func TestBuildSideClosedOncePerUser(t *testing.T) {
	build := mergeInput{batches: mergeRuns(100, 1, 30, 0, 1)}
	probes := []mergeInput{{batches: mergeRuns(50, 1, 20, 0, 1)}, {batches: mergeRuns(50, 1, 20, 0, 1)}}
	joins, side, _ := sharedJoins(Inner, build, probes, -1, nil)
	for _, j := range joins {
		if _, err := drain(j); err != nil {
			t.Fatal(err)
		}
	}
	if side.tab != nil || side.cols != nil {
		t.Fatal("table kept after the last Close")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "closed by more than its 2 users") {
			t.Fatalf("panic %q, want one naming the extra close", msg)
		}
	}()
	side.close()
}
