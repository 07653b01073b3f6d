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
// join's output holds its probe batch's own vectors, and a hash join's its
// build side's dictionaries, so nothing above it may write into them. Joins
// whose outputs pass the probe side through (a unique build) and gather it
// (a duplicated one) feed each kind of consumer, and every batch their
// sources emitted must be as it was when emitted.
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

	// Two streams share one build side, whose String column their joins
	// emit as codes over a dictionary of the frozen build column. Consumers
	// of every kind read it on their own goroutines; afterwards the build
	// batches, the join outputs and the dictionary's values are unchanged.
	str := func(c int) expr.Expr { return expr.Col(c, vector.String) }
	shared := map[string]func(joins []Operator) []Operator{
		"project": func(js []Operator) (roots []Operator) {
			for _, j := range js {
				roots = append(roots, &Project{Child: j, Exprs: []expr.Expr{str(5), expr.Add(i64(0), i64(4))}})
			}
			return roots
		},
		"sort": func(js []Operator) (roots []Operator) {
			for _, j := range js {
				roots = append(roots, &Sort{Child: j, Keys: []SortKey{{Expr: str(5)}, {Expr: i64(1)}}})
			}
			return roots
		},
		"hash aggregation": func(js []Operator) (roots []Operator) {
			for _, j := range js {
				roots = append(roots, &HashAggr{Child: j, Keys: []expr.Expr{str(5)},
					Aggs: []AggSpec{{Func: AggSum, Arg: i64(4)}, {Func: AggCountStar}}})
			}
			return roots
		},
		"local exchange": func(js []Operator) []Operator {
			return []Operator{XchgUnion(context.Background(), js)}
		},
	}
	for name, plan := range shared {
		for _, jt := range []JoinType{Inner, LeftOuter} {
			for _, build := range []struct {
				name string
				in   mergeInput
			}{{"unique build", mergeInput{batches: mergeRuns(150, 1, 64, 0, 2), sel: true}}, {"duplicated build", dup}} {
				t.Run(fmt.Sprintf("shared %s/type=%d/%s", name, jt, build.name), func(t *testing.T) {
					r := &keepingSource{Operator: build.in.source()}
					key := []expr.Expr{i64(0)}
					side := NewBuildSide(r, key, mergeKinds(false), 2)
					outs := make([]*keepingSource, 2)
					joins := make([]Operator, 2)
					for i := range joins {
						probe := mergeInput{batches: mergeRuns(300, 1, 100, int64(i), 1), sel: i == 1}
						outs[i] = &keepingSource{Operator: &HashJoin{Build: side, Probe: probe.source(), ProbeKeys: key, Type: jt}}
						joins[i] = outs[i]
					}
					roots := plan(joins)
					rows := make([][]string, len(roots))
					errs := make([]error, len(roots))
					runAll(t, len(roots), func(i int) { rows[i], errs[i] = drain(roots[i]) })
					for i := range roots {
						if errs[i] != nil || len(rows[i]) == 0 {
							t.Fatalf("stream %d: %d rows, error %v", i, len(rows[i]), errs[i])
						}
					}
					r.unchanged(t, "build")
					var want []string
					for _, row := range build.in.rows() {
						want = append(want, build.in.row(row)[2].(string))
					}
					want = append(want, "")
					for i, o := range outs {
						o.unchanged(t, fmt.Sprintf("stream %d join output", i))
						if len(o.emitted) == 0 {
							t.Fatalf("stream %d emitted nothing", i)
						}
						if d := o.emitted[0].Vecs[5].Dict(); d == nil || !slices.Equal(d.Values, want) {
							t.Fatalf("stream %d: the build column's dictionary after the drain is not its %d values and the pad", i, len(want)-1)
						}
					}
				})
			}
		}
	}
}
