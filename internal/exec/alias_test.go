package exec

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// keepingSource passes its input's batches on and keeps a deep copy of each,
// so that a test can tell whether anything downstream wrote into them.
type keepingSource struct {
	Operator
	emitted, copies []*vector.Batch
}

func (k *keepingSource) Next() (*vector.Batch, error) {
	b, err := k.Operator.Next()
	if b != nil {
		c := &vector.Batch{Sel: slices.Clone(b.Sel)}
		for _, v := range b.Vecs {
			c.Vecs = append(c.Vecs, v.Gather(nil, v.Len()))
		}
		k.emitted, k.copies = append(k.emitted, b), append(k.copies, c)
	}
	return b, err
}

// unchanged fails when an emitted batch no longer equals its copy in any
// physical row or in its selection.
func (k *keepingSource) unchanged(t *testing.T, what string) {
	t.Helper()
	for i, b := range k.emitted {
		c := k.copies[i]
		if !slices.Equal(b.Sel, c.Sel) ||
			!reflect.DeepEqual(vector.BoxRows(nil, &vector.Batch{Vecs: b.Vecs}), vector.BoxRows(nil, &vector.Batch{Vecs: c.Vecs})) {
			t.Fatalf("%s batch %d was written into after it was emitted", what, i)
		}
	}
}

// TestOperatorsLeaveInputsUnwritten holds the package doc's aliasing rule: a
// join's output holds its probe batch's own vectors, so nothing above it may
// write into them. Joins whose outputs pass the probe side through (a unique
// build) and gather it (a duplicated one) feed each kind of consumer, and
// every batch their sources emitted must be as it was when emitted.
func TestOperatorsLeaveInputsUnwritten(t *testing.T) {
	i64 := func(c int) expr.Expr { return expr.Col(c, vector.Int64) }
	plans := map[string]func(join Operator, third Operator) Operator{
		"project": func(j, _ Operator) Operator {
			return &Project{Child: j, Exprs: []expr.Expr{i64(1), expr.Add(i64(0), i64(4)), expr.Col(2, vector.String)}}
		},
		"select, hash aggregation": func(j, _ Operator) Operator {
			return &HashAggr{Child: &Select{Child: j, Pred: expr.GT(i64(1), expr.ConstInt64(40))},
				Keys: []expr.Expr{expr.Col(5, vector.String)},
				Aggs: []AggSpec{{Func: AggSum, Arg: i64(4)}, {Func: AggCountStar}}}
		},
		"sort":  func(j, _ Operator) Operator { return &Sort{Child: j, Keys: []SortKey{{Expr: i64(1), Desc: true}}} },
		"limit": func(j, _ Operator) Operator { return &Limit{Child: j, N: 150} },
		"local exchange": func(j, _ Operator) Operator {
			return XchgUnion(context.Background(), []Operator{j})
		},
		"join": func(j, third Operator) Operator {
			key := []expr.Expr{i64(0)}
			return &HashJoin{Probe: j, Build: NewBuildSide(third, key, nil, 1), ProbeKeys: key, Type: Inner}
		},
	}
	left := mergeInput{batches: mergeRuns(300, 1, 100, 0, 1)}
	leftSel := mergeInput{batches: mergeRuns(300, 1, 100, 0, 1), sel: true}
	unique := mergeInput{batches: mergeRuns(150, 1, 64, 0, 2)}
	dup := mergeInput{batches: mergeRuns(300, 2, 64, 0, 2)}
	third := mergeInput{batches: mergeRuns(100, 1, 30, 0, 3)}
	for name, plan := range plans {
		for _, merge := range []bool{false, true} {
			for _, jt := range []JoinType{Inner, LeftOuter} {
				for _, in := range []struct {
					name        string
					left, right mergeInput
				}{{"unique build", left, unique}, {"unique build, probe selection", leftSel, unique}, {"duplicated build", left, dup}} {
					t.Run(fmt.Sprintf("%s/merge=%v/type=%d/%s", name, merge, jt, in.name), func(t *testing.T) {
						l := &keepingSource{Operator: in.left.source()}
						r := &keepingSource{Operator: in.right.source()}
						x := &keepingSource{Operator: third.source()}
						rows := collectChecked(t, plan(newJoin(merge, jt, l, r, false), x))
						if len(rows) == 0 {
							t.Fatal("the plan returned no rows")
						}
						l.unchanged(t, "probe")
						r.unchanged(t, "build")
						x.unchanged(t, "third input")
					})
				}
			}
		}
	}
}
