package exec

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// mkBatches builds n rows (k=i, grp=i%g, val=float(i)) split into batches.
func mkBatches(n, g, batchSize int) []*vector.Batch {
	var out []*vector.Batch
	for off := 0; off < n; off += batchSize {
		cnt := n - off
		if cnt > batchSize {
			cnt = batchSize
		}
		ks := make([]int64, cnt)
		gs := make([]int64, cnt)
		vs := make([]float64, cnt)
		for i := 0; i < cnt; i++ {
			ks[i] = int64(off + i)
			gs[i] = int64((off + i) % g)
			vs[i] = float64(off + i)
		}
		out = append(out, vector.NewBatch(vector.FromInt64(ks), vector.FromInt64(gs), vector.FromFloat64(vs)))
	}
	return out
}

func src(n, g int) Operator { return &BatchSource{Batches: mkBatches(n, g, 100)} }

func TestSelectPassThroughAndFilter(t *testing.T) {
	rows, err := Collect(&Select{Child: src(10, 3), Pred: expr.LT(expr.Col(0, vector.Int64), expr.ConstInt64(4))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All-qualifying predicate passes batches through unchanged.
	rows, err = Collect(&Select{Child: src(10, 3), Pred: expr.GE(expr.Col(0, vector.Int64), expr.ConstInt64(0))})
	if err != nil || len(rows) != 10 {
		t.Fatalf("rows = %d err=%v", len(rows), err)
	}
	// Nothing qualifies.
	rows, err = Collect(&Select{Child: src(10, 3), Pred: expr.LT(expr.Col(0, vector.Int64), expr.ConstInt64(0))})
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %d err=%v", len(rows), err)
	}
}

func TestProjectAndChainedSelect(t *testing.T) {
	op := &Project{
		Child: &Select{Child: src(10, 3), Pred: expr.GE(expr.Col(0, vector.Int64), expr.ConstInt64(8))},
		Exprs: []expr.Expr{
			expr.Mul(expr.Col(0, vector.Int64), expr.ConstInt64(2)),
			expr.Col(2, vector.Float64),
		},
	}
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].(int64) != 16 || rows[1][1].(float64) != 9 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLimit(t *testing.T) {
	rows, err := Collect(&Limit{Child: src(500, 3), N: 7})
	if err != nil || len(rows) != 7 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	rows, err = Collect(&Limit{Child: src(5, 3), N: 100})
	if err != nil || len(rows) != 5 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}

func TestHashAggrGrouped(t *testing.T) {
	op := &HashAggr{
		Child: src(100, 4),
		Keys:  []expr.Expr{expr.Col(1, vector.Int64)},
		Aggs: []AggSpec{
			{Func: AggCountStar},
			{Func: AggSum, Arg: expr.Col(0, vector.Int64)},
			{Func: AggMin, Arg: expr.Col(2, vector.Float64)},
			{Func: AggMax, Arg: expr.Col(2, vector.Float64)},
			{Func: AggAvg, Arg: expr.Col(0, vector.Int64)},
		},
	}
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	byGrp := map[int64][]any{}
	for _, r := range rows {
		byGrp[r[0].(int64)] = r
	}
	// Group 1: keys 1,5,...,97 → count 25, sum 1225, min 1, max 97, avg 49.
	g := byGrp[1]
	if g[1].(int64) != 25 || g[2].(int64) != 1225 || g[3].(float64) != 1 || g[4].(float64) != 97 || g[5].(float64) != 49 {
		t.Fatalf("group 1 = %v", g)
	}
}

func TestHashAggrGlobalAndEmpty(t *testing.T) {
	op := &HashAggr{Child: src(10, 2), Aggs: []AggSpec{{Func: AggSum, Arg: expr.Col(0, vector.Int64)}}}
	rows, err := Collect(op)
	if err != nil || len(rows) != 1 || rows[0][0].(int64) != 45 {
		t.Fatalf("global sum = %v err=%v", rows, err)
	}
	// Empty input still yields one global row.
	op = &HashAggr{Child: &BatchSource{}, Aggs: []AggSpec{{Func: AggCountStar}}}
	rows, err = Collect(op)
	if err != nil || len(rows) != 1 || rows[0][0].(int64) != 0 {
		t.Fatalf("empty global = %v err=%v", rows, err)
	}
	// A partial phase over empty input yields none: the final phase would
	// take its zeros as a stream's MIN and MAX.
	minMax := []AggSpec{{Func: AggMin, Arg: expr.Col(0, vector.Int64)}, {Func: AggMax, Arg: expr.Col(0, vector.Int64)}}
	op = &HashAggr{Child: &BatchSource{}, Aggs: minMax, Partial: true}
	if rows, err = Collect(op); err != nil || len(rows) != 0 {
		t.Fatalf("empty partial = %v err=%v", rows, err)
	}
	op = &HashAggr{Child: src(10, 2), Aggs: minMax, Partial: true}
	if rows, err = Collect(op); err != nil || len(rows) != 1 || rows[0][0].(int64) != 0 || rows[0][1].(int64) != 9 {
		t.Fatalf("partial min/max = %v err=%v", rows, err)
	}
}

func TestHashAggrCountDistinct(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{1, 1, 1, 2, 2}),
		vector.FromString([]string{"a", "b", "a", "c", "c"}),
	)
	op := &HashAggr{
		Child: &BatchSource{Batches: []*vector.Batch{b}},
		Keys:  []expr.Expr{expr.Col(0, vector.Int64)},
		Aggs:  []AggSpec{{Func: AggCountDistinct, Arg: expr.Col(1, vector.String)}},
	}
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range rows {
		got[r[0].(int64)] = r[1].(int64)
	}
	if got[1] != 2 || got[2] != 1 {
		t.Fatalf("distinct = %v", got)
	}
}

func TestHashAggrStringKeysAndMinMaxString(t *testing.T) {
	b := vector.NewBatch(
		vector.FromString([]string{"x", "y", "x"}),
		vector.FromString([]string{"bb", "cc", "aa"}),
	)
	op := &HashAggr{
		Child: &BatchSource{Batches: []*vector.Batch{b}},
		Keys:  []expr.Expr{expr.Col(0, vector.String)},
		Aggs: []AggSpec{
			{Func: AggMin, Arg: expr.Col(1, vector.String)},
			{Func: AggMax, Arg: expr.Col(1, vector.String)},
		},
	}
	rows, err := Collect(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	for _, r := range rows {
		if r[0].(string) == "x" && (r[1].(string) != "aa" || r[2].(string) != "bb") {
			t.Fatalf("x group = %v", r)
		}
	}
}

func buildProbe() (Operator, Operator) {
	build := vector.NewBatch(
		vector.FromInt64([]int64{1, 2, 3}),
		vector.FromString([]string{"one", "two", "three"}),
	)
	probe := vector.NewBatch(
		vector.FromInt64([]int64{2, 2, 4, 1}),
		vector.FromFloat64([]float64{20, 21, 40, 10}),
	)
	return &BatchSource{Batches: []*vector.Batch{build}}, &BatchSource{Batches: []*vector.Batch{probe}}
}

func TestHashJoinInner(t *testing.T) {
	b, p := buildProbe()
	j := &HashJoin{Build: NewBuildSide(b, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1), Probe: p,
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)}, Type: Inner}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Output: probe cols (k, val) then build cols (k, name).
	if rows[0][3].(string) != "two" || rows[2][3].(string) != "one" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	b, p := buildProbe()
	j := &HashJoin{Build: NewBuildSide(b, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1), Probe: p,
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)}, Type: LeftOuter}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	var unmatched []any
	for _, r := range rows {
		if !r[4].(bool) {
			unmatched = r
		}
	}
	if unmatched == nil || unmatched[0].(int64) != 4 || unmatched[3].(string) != "" {
		t.Fatalf("unmatched = %v", unmatched)
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	b, p := buildProbe()
	j := &HashJoin{Build: NewBuildSide(b, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1), Probe: p,
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)}, Type: Semi}
	rows, err := Collect(j)
	if err != nil || len(rows) != 3 {
		t.Fatalf("semi rows = %v err=%v", rows, err)
	}
	if len(rows[0]) != 2 {
		t.Fatalf("semi keeps probe cols only: %v", rows[0])
	}
	b2, p2 := buildProbe()
	j = &HashJoin{Build: NewBuildSide(b2, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1), Probe: p2,
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)}, Type: Anti}
	rows, err = Collect(j)
	if err != nil || len(rows) != 1 || rows[0][0].(int64) != 4 {
		t.Fatalf("anti rows = %v err=%v", rows, err)
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	build := vector.NewBatch(
		vector.FromInt64([]int64{7, 7}),
		vector.FromString([]string{"a", "b"}),
	)
	probe := vector.NewBatch(vector.FromInt64([]int64{7}))
	j := &HashJoin{
		Build:     NewBuildSide(&BatchSource{Batches: []*vector.Batch{build}}, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1),
		Probe:     &BatchSource{Batches: []*vector.Batch{probe}},
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)}, Type: Inner}
	rows, err := Collect(j)
	if err != nil || len(rows) != 2 {
		t.Fatalf("dup join rows = %v err=%v", rows, err)
	}
}

func TestMergeJoin(t *testing.T) {
	// Left: fk with duplicates, sorted. Right: unique pk, sorted.
	left := vector.NewBatch(
		vector.FromInt64([]int64{1, 1, 2, 4, 4, 4, 7}),
		vector.FromFloat64([]float64{10, 11, 20, 40, 41, 42, 70}),
	)
	right := vector.NewBatch(
		vector.FromInt64([]int64{1, 2, 3, 4, 5}),
		vector.FromString([]string{"one", "two", "three", "four", "five"}),
	)
	m := &MergeJoin{
		Left:    &BatchSource{Batches: []*vector.Batch{left}},
		Right:   &BatchSource{Batches: []*vector.Batch{right}},
		LeftKey: 0, RightKey: 0,
	}
	rows, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[5][3].(string) != "four" || rows[0][3].(string) != "one" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMergeJoinAcrossBatches(t *testing.T) {
	mk := func(keys []int64) []*vector.Batch {
		var out []*vector.Batch
		for _, k := range keys { // one row per batch: stress refills
			out = append(out, vector.NewBatch(vector.FromInt64([]int64{k})))
		}
		return out
	}
	m := &MergeJoin{
		Left:    &BatchSource{Batches: mk([]int64{1, 2, 2, 3, 9})},
		Right:   &BatchSource{Batches: mk([]int64{2, 3, 4})},
		LeftKey: 0, RightKey: 0,
	}
	rows, err := Collect(m)
	if err != nil || len(rows) != 3 {
		t.Fatalf("rows = %v err=%v", rows, err)
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	// Duplicates on BOTH sides: every (left, right) pair with equal keys
	// must come out, including when a right-side run spans batch refills.
	left := vector.NewBatch(
		vector.FromInt64([]int64{1, 2, 2, 4}),
		vector.FromString([]string{"l1", "l2a", "l2b", "l4"}),
	)
	right := []*vector.Batch{
		vector.NewBatch(
			vector.FromInt64([]int64{2, 2}),
			vector.FromString([]string{"r2a", "r2b"})),
		vector.NewBatch( // run for key 2 continues into this batch
			vector.FromInt64([]int64{2, 3, 4}),
			vector.FromString([]string{"r2c", "r3", "r4"})),
	}
	m := &MergeJoin{
		Left:    &BatchSource{Batches: []*vector.Batch{left}},
		Right:   &BatchSource{Batches: right},
		LeftKey: 0, RightKey: 0,
	}
	rows, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r[1].(string)+"/"+r[3].(string))
	}
	want := []string{"l2a/r2a", "l2a/r2b", "l2a/r2c", "l2b/r2a", "l2b/r2b", "l2b/r2c", "l4/r4"}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", got, want)
		}
	}
}

func TestSortMultiKey(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{1, 2, 1, 2}),
		vector.FromString([]string{"b", "x", "a", "y"}),
	)
	s := &Sort{Child: &BatchSource{Batches: []*vector.Batch{b}}, Keys: []SortKey{
		{Expr: expr.Col(0, vector.Int64), Desc: true},
		{Expr: expr.Col(1, vector.String)},
	}}
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "a", "b"}
	for i, w := range want {
		if rows[i][1].(string) != w {
			t.Fatalf("rows = %v", rows)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	rows, err := Collect(&Sort{Child: &BatchSource{}, Keys: []SortKey{{Expr: expr.Col(0, vector.Int64)}}})
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestTopN(t *testing.T) {
	op := &TopN{Child: src(1000, 3), N: 5, Keys: []SortKey{{Expr: expr.Col(0, vector.Int64), Desc: true}}}
	rows, err := Collect(op)
	if err != nil || len(rows) != 5 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	if rows[0][0].(int64) != 999 || rows[4][0].(int64) != 995 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestXchgUnionMergesAllProducers(t *testing.T) {
	producers := []Operator{src(100, 2), src(100, 2), src(100, 2)}
	u := XchgUnion(context.Background(), producers)
	rows, err := Collect(u)
	if err != nil || len(rows) != 300 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}

func TestXchgHashSplitPartitionsCompletely(t *testing.T) {
	producers := []Operator{src(500, 2), src(500, 2)}
	ports := XchgHashSplit(context.Background(), producers, []expr.Expr{expr.Col(0, vector.Int64)}, 4)
	type res struct {
		rows [][]any
		err  error
	}
	results := make([]res, 4)
	done := make(chan int, 4)
	for i, p := range ports {
		go func(i int, p Operator) {
			r, e := Collect(p)
			results[i] = res{r, e}
			done <- i
		}(i, p)
	}
	for range ports {
		<-done
	}
	seen := map[int64][]int{}
	total := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		total += len(r.rows)
		for _, row := range r.rows {
			seen[row[0].(int64)] = append(seen[row[0].(int64)], i)
		}
	}
	if total != 1000 {
		t.Fatalf("total rows = %d", total)
	}
	// Same key always lands at the same consumer.
	for k, consumers := range seen {
		sort.Ints(consumers)
		for _, c := range consumers {
			if c != consumers[0] {
				t.Fatalf("key %d split across consumers %v", k, consumers)
			}
		}
	}
}

// TestSendEncodedRecyclesWireBuffers: encoded batches arrive intact, every
// wire buffer goes back to the exchange's free list after its decode, so a
// run allocates no more of them than can be in flight at once (the channel's
// items, one being encoded, one being decoded), and under
// -tags vectorh_debug the buffers on the list are poisoned.
func TestSendEncodedRecyclesWireBuffers(t *testing.T) {
	ports := NewExchange(context.Background(), []Operator{src(5000, 7)}, 1, stateless(func(b *vector.Batch, out Outs) error {
		_, err := out.SendEncoded(0, b)
		return err
	}))
	rows, err := Collect(ports[0])
	if err != nil || len(rows) != 5000 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	for i, r := range rows {
		if r[0].(int64) != int64(i) || r[1].(int64) != int64(i%7) || r[2].(float64) != float64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	free := ports[0].(*port).x.freeWire
	if len(free) == 0 || len(free) > chanDepth+2 {
		t.Errorf("%d wire buffers on the free list after 50 messages, want 1…%d", len(free), chanDepth+2)
	}
	for _, w := range free {
		if vector.DebugAsserts && bytes.Count(w, []byte{0xA5}) != len(w) {
			t.Fatal("a recycled wire buffer is not poisoned under vectorh_debug")
		}
	}
}

type errOp struct{ err error }

func (e *errOp) Open() error                  { return nil }
func (e *errOp) Next() (*vector.Batch, error) { return nil, e.err }
func (e *errOp) Close() error                 { return nil }

func TestXchgPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	u := XchgUnion(context.Background(), []Operator{&errOp{boom}})
	_, err := Collect(u)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}

	// A key program that compiles but fails on the batch ($5 of a 3-column
	// batch): the route's error reaches every port as one value.
	ports := XchgHashSplit(context.Background(), []Operator{src(10, 2)}, []expr.Expr{expr.Col(5, vector.Int64)}, 3)
	errs := make([]error, len(ports))
	done := make(chan struct{})
	for i, p := range ports {
		go func() {
			_, errs[i] = Collect(p)
			done <- struct{}{}
		}()
	}
	for range ports {
		<-done
	}
	for i, err := range errs {
		if err == nil || !errors.Is(err, errs[0]) {
			t.Fatalf("port %d: err = %v, port 0: %v", i, err, errs[0])
		}
	}
}

func TestProfiledCountsTuples(t *testing.T) {
	p := &Profiled{Child: src(250, 2)}
	rows, err := Collect(p)
	if err != nil || len(rows) != 250 {
		t.Fatal(err)
	}
	if p.TuplesOut != 250 || p.Nanos <= 0 {
		t.Fatalf("profile: tuples=%d nanos=%d", p.TuplesOut, p.Nanos)
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	s := &FuncSource{NextFn: func() (*vector.Batch, error) {
		if n >= 2 {
			return nil, nil
		}
		n++
		return vector.NewBatch(vector.FromInt64([]int64{int64(n)})), nil
	}}
	rows, err := Collect(s)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestRowHasherDeterministicAcrossBatches(t *testing.T) {
	b1 := vector.NewBatch(vector.FromInt64([]int64{42}))
	b2 := vector.NewBatch(vector.FromInt64([]int64{42, 7}))
	hasher, err := NewRowHasher([]expr.Expr{expr.Col(0, vector.Int64)})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := hasher.Hash(b1)
	if err != nil {
		t.Fatal(err)
	}
	h1 = append([]uint64(nil), h1...) // valid only until the next Hash
	h2, err := hasher.Hash(b2)
	if err != nil {
		t.Fatal(err)
	}
	if h1[0] != h2[0] {
		t.Fatal("hash of same key differs between batches")
	}
	if h2[0] == h2[1] {
		t.Fatal("distinct keys should (almost surely) hash differently")
	}
}

func TestCollectErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Collect(&errOp{boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkVectorizedVsTupleSelect(b *testing.B) {
	// The §2 claim in miniature: vectorized selection vs per-tuple calls.
	n := 1 << 16
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i % 1000)
	}
	batch := vector.NewBatch(vector.FromInt64(ks))
	pred := expr.LT(expr.Col(0, vector.Int64), expr.ConstInt64(500))
	b.Run("vectorized", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		for i := 0; i < b.N; i++ {
			v, err := pred.Eval(batch)
			if err != nil {
				b.Fatal(err)
			}
			_ = expr.SelFromBool(v, batch)
		}
	})
	b.Run("tuple-at-a-time", func(b *testing.B) {
		b.SetBytes(int64(n * 8))
		one := vector.NewBatch(vector.FromInt64([]int64{0}))
		for i := 0; i < b.N; i++ {
			cnt := 0
			for r := 0; r < n; r++ {
				one.Vecs[0].Int64s()[0] = ks[r]
				v, err := pred.Eval(one)
				if err != nil {
					b.Fatal(err)
				}
				if v.Bools()[0] {
					cnt++
				}
			}
			_ = cnt
		}
	})
}
