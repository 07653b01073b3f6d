package exec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// Operators compile their expressions into a program of their own at Open;
// these tests pin what follows from that: compile errors surface from Open,
// a warm operator allocates nothing per batch for expression evaluation, and
// instances sharing one bound []expr.Expr do not share state.

func TestCompileErrorsSurfaceFromOpen(t *testing.T) {
	str, i64 := expr.Col(0, vector.String), expr.Col(1, vector.Int64)
	bad := expr.Add(str, expr.ConstInt64(1))
	child := func() Operator { return &BatchSource{} }
	for name, op := range map[string]Operator{
		"select non-bool": &Select{Child: child(), Pred: i64},
		"select":          &Select{Child: child(), Pred: expr.GT(bad, expr.ConstInt64(0))},
		"project":         &Project{Child: child(), Exprs: []expr.Expr{i64, bad}},
		"aggr key":        &HashAggr{Child: child(), Keys: []expr.Expr{bad}},
		"aggr arg":        &HashAggr{Child: child(), Aggs: []AggSpec{{Func: AggSum, Arg: bad}}},
		"aggr sum string": &HashAggr{Child: child(), Aggs: []AggSpec{{Func: AggSum, Arg: str}}},
		"join build":      &HashJoin{Build: NewBuildSide(child(), []expr.Expr{bad}, nil, 1), Probe: child(), ProbeKeys: []expr.Expr{i64}},
		"join probe":      &HashJoin{Build: NewBuildSide(child(), []expr.Expr{i64}, nil, 1), Probe: child(), ProbeKeys: []expr.Expr{bad}},
		"sort":            &Sort{Child: child(), Keys: []SortKey{{Expr: bad}}},
	} {
		err := op.Open()
		if err == nil || !(strings.Contains(err.Error(), "($0 + 1)") || strings.Contains(err.Error(), "not bool") ||
			strings.Contains(err.Error(), "SUM over string in $0")) {
			t.Errorf("%s: Open = %v, want a compile error naming the sub-expression", name, err)
		}
	}
	if _, err := NewRowHasher([]expr.Expr{bad}); err == nil {
		t.Error("NewRowHasher must report compile errors")
	}
	// An exchange compiles per producer goroutine: the error reaches a consumer.
	ports := XchgHashSplit(context.Background(), []Operator{src(10, 3)}, []expr.Expr{bad}, 2)
	var errs []error
	for _, p := range ports {
		_, err := Collect(p)
		errs = append(errs, err)
	}
	if errs[0] == nil && errs[1] == nil {
		t.Error("XchgHashSplit with uncompilable keys delivered no error")
	}
}

// q01Like is a grouped aggregation whose arguments overlap the way Q01's do.
func q01Like(batches []*vector.Batch) *HashAggr {
	val := func() expr.Expr { return expr.Col(2, vector.Float64) }
	disc := func() expr.Expr {
		return expr.Mul(val(), expr.Sub(expr.ConstFloat(1), expr.Scaled(expr.Col(0, vector.Int64), 0.0001)))
	}
	return &HashAggr{Child: &BatchSource{Batches: batches}, Keys: []expr.Expr{expr.Col(1, vector.Int64)},
		Aggs: []AggSpec{{Func: AggSum, Arg: val()}, {Func: AggSum, Arg: disc()}, {Func: AggAvg, Arg: disc()},
			{Func: AggSum, Arg: expr.Mul(disc(), expr.Add(expr.ConstFloat(1), val()))}, {Func: AggCountStar}}}
}

func mallocsOf(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func TestHashAggrAllocationsDoNotGrowWithBatches(t *testing.T) {
	batches := mkBatches(64*1024, 7, 1024)
	run := func(bs []*vector.Batch) uint64 {
		op := q01Like(bs)
		return mallocsOf(func() {
			if _, err := Collect(op); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(batches[:8]) // warm the runtime's own lazily allocated state
	few, many := run(batches[:8]), run(batches)
	if many > few+8 {
		t.Errorf("HashAggr over 64 batches allocated %d objects, over 8 batches %d: per-batch allocation is back", many, few)
	}
}

// TestHashAggrStringKeyAllocationsDoNotGrowWithBatches is the check above
// for Q01's two string keys, l_returnflag and l_linestatus, once as
// dictionary codes and once materialized: both take the dense group-id path.
func TestHashAggrStringKeyAllocationsDoNotGrowWithBatches(t *testing.T) {
	flags := &compress.StrDict{Values: []string{"A", "N", "R"}}
	statuses := &compress.StrDict{Values: []string{"F", "O"}}
	for _, form := range []string{"dictionary", "materialized"} {
		batches := make([]*vector.Batch, 64)
		for b := range batches {
			fc, sc, vals := make([]uint32, 1024), make([]uint32, 1024), make([]float64, 1024)
			for i := range fc {
				fc[i], sc[i], vals[i] = uint32((b*1024+i)/7%3), uint32((b*1024+i)/5%2), float64(i)
			}
			f, s := vector.FromDictCodes(fc, flags), vector.FromDictCodes(sc, statuses)
			if form == "materialized" {
				f, s = vector.FromString(f.Strings()), vector.FromString(s.Strings())
			}
			batches[b] = vector.NewBatch(f, s, vector.FromFloat64(vals))
		}
		run := func(bs []*vector.Batch) uint64 {
			val := expr.Col(2, vector.Float64)
			op := &HashAggr{Child: &BatchSource{Batches: bs},
				Keys: []expr.Expr{expr.Col(0, vector.String), expr.Col(1, vector.String)},
				Aggs: []AggSpec{{Func: AggSum, Arg: val}, {Func: AggAvg, Arg: val}, {Func: AggCountStar}}}
			return mallocsOf(func() {
				rows, err := Collect(op)
				if err != nil || len(rows) != 6 {
					t.Fatalf("%s keys: %d groups, err %v", form, len(rows), err)
				}
			})
		}
		run(batches[:8])
		few, many := run(batches[:8]), run(batches)
		if many > few+8 {
			t.Errorf("%s keys: HashAggr over 64 batches allocated %d objects, over 8 batches %d: per-batch allocation is back", form, many, few)
		}
	}
}

func TestInstancesFromOneBoundExprListAreIndependent(t *testing.T) {
	// One bound description, shared by every instance below — as the rewriter
	// shares a plan node's expressions between its streams.
	pred := expr.And(expr.GE(expr.Col(0, vector.Int64), expr.ConstInt64(100)), expr.Like(expr.Col(3, vector.String), "%1%"))
	exprs := []expr.Expr{
		expr.Col(1, vector.Int64),
		expr.Case(expr.GT(expr.Col(2, vector.Float64), expr.ConstFloat(500)), expr.Mul(expr.Col(2, vector.Float64), expr.ConstFloat(0.5)), expr.ConstFloat(0)),
		expr.Substr(expr.Col(3, vector.String), 1, 2),
	}
	keys := []expr.Expr{expr.Col(0, vector.Int64), expr.Col(2, vector.String)}
	aggs := []AggSpec{{Func: AggSum, Arg: expr.Col(1, vector.Float64)}, {Func: AggCountStar}}
	order := []SortKey{{Expr: expr.Col(0, vector.Int64)}, {Expr: expr.Col(1, vector.String), Desc: true}}
	input := func(stream int) []*vector.Batch {
		bs := mkBatches(5000, 11, 512)
		for _, b := range bs {
			names := make([]string, b.Len())
			for i, k := range b.Vecs[0].Int64s() {
				names[i] = fmt.Sprint(k * int64(stream+1))
			}
			b.Vecs = append(b.Vecs, vector.FromString(names))
		}
		return bs
	}
	build := func(stream int) Operator {
		return &Sort{Keys: order, Child: &HashAggr{Keys: keys, Aggs: aggs,
			Child: &Project{Exprs: exprs, Child: &Select{Pred: pred, Child: &BatchSource{Batches: input(stream)}}}}}
	}
	const streams = 6
	want := make([][][]any, streams)
	for s := range want {
		rows, err := Collect(build(s))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = rows
	}
	got := make([][][]any, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rows, err := Collect(build(s))
			if err != nil {
				t.Error(err)
			}
			got[s] = rows
		}(s)
	}
	wg.Wait()
	for s := range want {
		if fmt.Sprint(got[s]) != fmt.Sprint(want[s]) {
			t.Fatalf("stream %d: concurrent run differs from serial run", s)
		}
		if len(want[s]) == 0 {
			t.Fatalf("stream %d produced no rows", s)
		}
	}
	// The same keys through concurrent exchange senders, one hasher each.
	ports := XchgHashSplit(context.Background(), []Operator{src(3000, 7), src(3000, 7), src(3000, 7)}, []expr.Expr{exprs[0]}, 2)
	counts := make([]int, len(ports))
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p Operator) {
			defer wg.Done()
			rows, err := Collect(p)
			if err != nil {
				t.Error(err)
			}
			counts[i] = len(rows)
		}(i, p)
	}
	wg.Wait()
	sort.Ints(counts)
	if counts[0]+counts[1] != 9000 {
		t.Fatalf("hash split delivered %v rows, want 9000 in total", counts)
	}
}

// TestProjectOutputsAreNotReused: a Project's vectors leave the operator, so
// a batch a consumer still holds must not change when the next one is made.
func TestProjectOutputsAreNotReused(t *testing.T) {
	op := &Project{Child: &BatchSource{Batches: mkBatches(2048, 3, 1024)},
		Exprs: []expr.Expr{expr.Mul(expr.Col(2, vector.Float64), expr.ConstFloat(2)), expr.Col(0, vector.Int64)}}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	first, _ := op.Next()
	keep := append([]float64(nil), first.Vecs[0].Float64s()...)
	second, err := op.Next()
	if err != nil || second == nil {
		t.Fatal(second, err)
	}
	for i, x := range first.Vecs[0].Float64s() {
		if x != keep[i] {
			t.Fatalf("row %d of an emitted batch changed when the next batch was produced", i)
		}
	}
	// Under a selection the column output is gathered into a fresh vector too.
	sel := vector.NewBatch(vector.FromInt64([]int64{1, 2, 3}), vector.FromInt64([]int64{0, 0, 0}), vector.FromFloat64([]float64{1, 2, 3}))
	sel.Sel = []int32{2, 0}
	op = &Project{Child: &BatchSource{Batches: []*vector.Batch{sel, sel}}, Exprs: op.Exprs}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	a, _ := op.Next()
	b, _ := op.Next()
	if a.Vecs[1] == b.Vecs[1] || a.Vecs[0] == b.Vecs[0] || fmt.Sprint(a.Vecs[1].Int64s()) != "[3 1]" {
		t.Fatalf("gathered outputs must be fresh per batch: %v", a.Vecs[1].Int64s())
	}
}
