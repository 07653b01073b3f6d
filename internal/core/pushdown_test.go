package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/expr"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// pushdownQuery builds a filtered scan: o_date in a range and o_total in a
// float window. With pushdown on, the rewriter plans no Select and the scan
// both skips blocks on the derived bounds and filters rows.
func pushdownQuery() plan.Node {
	pred := plan.And(plan.And(
		plan.GE(plan.Col("o_date"), plan.Date("1995-01-10")),
		plan.LE(plan.Col("o_date"), plan.Date("1995-01-20"))),
		plan.GE(plan.Col("o_total"), plan.Float(100)))
	f := plan.Filter(plan.Scan("orders", "o_orderkey", "o_date", "o_total"), pred)
	return plan.OrderBy(f, plan.Asc(plan.Col("o_orderkey")))
}

// runBoth executes a plan with scan pushdown on and off and asserts the row
// sets are identical; it returns the rows.
func runBoth(t *testing.T, e *Engine, q plan.Node) [][]any {
	t.Helper()
	rOn, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatalf("pushdown on: %v", err)
	}
	rOff, err := e.Run(context.Background(), q, QueryOptions{Disable: rewriter.ScanPushdown}, nil)
	if err != nil {
		t.Fatalf("pushdown off: %v", err)
	}
	if len(rOn.Rows) != len(rOff.Rows) {
		t.Fatalf("row count diverged: pushdown=%d select-above-scan=%d", len(rOn.Rows), len(rOff.Rows))
	}
	for i := range rOn.Rows {
		for c := range rOn.Rows[i] {
			if rOn.Rows[i][c] != rOff.Rows[i][c] {
				t.Fatalf("row %d col %d diverged: pushdown=%v select=%v", i, c, rOn.Rows[i][c], rOff.Rows[i][c])
			}
		}
	}
	return rOn.Rows
}

// TestScanPushdownParityAcrossDeltas locks the core correctness property of
// late-materialized scans: with predicates evaluated inside the scan, the
// result stays row-identical to the Select-above-scan pipeline through
// every PDT state — clean blocks, modify deltas that flip qualification in
// both directions, tail inserts inside and outside the predicate range, and
// deletes — and again after propagation rewrites the blocks.
func TestScanPushdownParityAcrossDeltas(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 4000)
	q := pushdownQuery()

	base := runBoth(t, e, q)
	if len(base) == 0 {
		t.Fatal("predicate selected nothing; test data broken")
	}

	// Flip qualification via modifies: push some qualifying rows below the
	// o_total bound, and pull some non-qualifying rows into the date range.
	if _, err := e.UpdateWhere(context.Background(), "orders",
		plan.EQ(plan.Col("o_orderkey"), plan.Int(150)),
		[]string{"o_total"}, []plan.Expr{plan.Float(5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateWhere(context.Background(), "orders",
		plan.EQ(plan.Col("o_orderkey"), plan.Int(3999)),
		[]string{"o_date"}, []plan.Expr{plan.Date("1995-01-12")}); err != nil {
		t.Fatal(err)
	}
	afterMod := runBoth(t, e, q)
	if len(afterMod) != len(base) {
		// one row left the window (o_total), one entered it (o_date)
		t.Fatalf("modify flips changed cardinality unexpectedly: %d -> %d", len(base), len(afterMod))
	}
	found3999 := false
	for _, r := range afterMod {
		if r[0].(int64) == 3999 {
			found3999 = true
		}
		if r[0].(int64) == 150 {
			t.Fatal("row 150 should have been filtered out after its o_total modify")
		}
	}
	if !found3999 {
		t.Fatal("row 3999 should qualify after its o_date modify")
	}

	// Tail inserts: one inside the window, one outside.
	ins := vector.NewBatchForSchema(ordersSchema, 2)
	ins.AppendRow(int64(9001), vector.MustDate("1995-01-15"), float64(500))
	ins.AppendRow(int64(9002), vector.MustDate("1997-06-01"), float64(500))
	if err := e.InsertRows(context.Background(), "orders", ins); err != nil {
		t.Fatal(err)
	}
	afterIns := runBoth(t, e, q)
	if len(afterIns) != len(afterMod)+1 {
		t.Fatalf("tail insert inside window: rows %d -> %d, want +1", len(afterMod), len(afterIns))
	}

	// Deletes shift positions under the scan.
	if _, err := e.DeleteWhere(context.Background(), "orders",
		plan.LT(plan.Col("o_orderkey"), plan.Int(50))); err != nil {
		t.Fatal(err)
	}
	runBoth(t, e, q)

	// Propagate every partition so deltas become blocks, then re-verify.
	for p := 0; p < 4; p++ {
		if err := e.PropagatePartition(context.Background(), "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	final := runBoth(t, e, q)
	if len(final) != len(afterIns) {
		t.Fatalf("propagation changed the visible rows: %d -> %d", len(afterIns), len(final))
	}
}

// TestLateMaterializationPrunesIO verifies the two-phase scan actually
// avoids physical work. The table is built so MinMax skipping cannot help:
// the predicate column holds odd values spanning a wide range per block,
// and the predicate asks for an even value inside that range — every block
// qualifies by summary, no row qualifies in fact. Late materialization must
// then prune every span after decoding only the predicate column, never
// touching the fat payload column the query projects.
func TestLateMaterializationPrunesIO(t *testing.T) {
	e := testEngine(t, 3)
	schema := vector.Schema{
		{Name: "key", Type: vector.TInt64},
		{Name: "noise", Type: vector.TInt64},
		{Name: "payload", Type: vector.TString},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "events", Schema: schema, PartitionKey: "key", Partitions: 4,
	}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 20000)
	for i := 0; i < 20000; i++ {
		b.AppendRow(int64(i), int64(2*i+1), fmt.Sprintf("payload-%032d", i))
	}
	if err := e.Load("events", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}

	pred := plan.EQ(plan.Col("noise"), plan.Int(10000)) // even: never present
	q := plan.Node(plan.Filter(plan.Scan("events", "key", "noise", "payload"), pred))

	s0 := e.ScanStats()
	rOn, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.ScanStats()
	rOff, err := e.Run(context.Background(), q, QueryOptions{Disable: rewriter.ScanPushdown}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e.ScanStats()
	if len(rOn.Rows) != 0 || len(rOff.Rows) != 0 {
		t.Fatalf("phantom rows: on=%d off=%d", len(rOn.Rows), len(rOff.Rows))
	}

	onBytes := s1.BytesDecoded - s0.BytesDecoded
	offBytes := s2.BytesDecoded - s1.BytesDecoded
	if onBytes*2 >= offBytes {
		t.Fatalf("late materialization should decode far fewer bytes: on=%d off=%d", onBytes, offBytes)
	}
	if pruned := s1.SpansPruned - s0.SpansPruned; pruned == 0 {
		t.Fatalf("every span should have been pruned before payload decode (on=%dB off=%dB)", onBytes, offBytes)
	}
}

// TestSelectiveGatherFillsBlockCache holds the scanner to one block read
// path: a payload column gathered for a few surviving rows is decoded as a
// whole block into the shared block cache, so running the same selective
// query again reads nothing from HDFS and decodes no block. The payload
// holds unsorted integers (plain PFOR, not PFOR-DELTA) and the survivors of
// each partition sit inside a quarter of one block: the sparsest gather a
// scan makes must still be served by a whole-block decode.
func TestSelectiveGatherFillsBlockCache(t *testing.T) {
	e := testEngine(t, 3)
	schema := vector.Schema{
		{Name: "key", Type: vector.TInt64},
		{Name: "v", Type: vector.TInt64},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "events", Schema: schema, PartitionKey: "key", Partitions: 4,
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	want := make([]int64, 20000)
	b := vector.NewBatchForSchema(schema, len(want))
	for i := range want {
		want[i] = rng.Int63n(1 << 20)
		b.AppendRow(int64(i), want[i])
	}
	if err := e.Load("events", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	pred := plan.And(
		plan.GE(plan.Col("key"), plan.Int(1000)),
		plan.LE(plan.Col("key"), plan.Int(1009)))
	q := plan.OrderBy(plan.Filter(plan.Scan("events", "key", "v"), pred), plan.Asc(plan.Col("key")))

	run := func() (hdfsBytes, blocks int64) {
		t.Helper()
		fs0, s0 := e.FS().Stats(), e.ScanStats()
		r, err := e.Run(context.Background(), q, QueryOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs1, s1 := e.FS().Stats(), e.ScanStats()
		if len(r.Rows) != 10 {
			t.Fatalf("got %d rows, want 10", len(r.Rows))
		}
		for j, row := range r.Rows {
			k := 1000 + j
			if row[0] != int64(k) || row[1] != want[k] {
				t.Fatalf("row %d = %v, want [%d %d]", j, row, k, want[k])
			}
		}
		hdfsBytes = fs1.LocalBytesRead + fs1.RemoteBytesRead - fs0.LocalBytesRead - fs0.RemoteBytesRead
		return hdfsBytes, s1.BlocksRead - s0.BlocksRead
	}
	if bytes, blocks := run(); bytes == 0 || blocks == 0 {
		t.Fatalf("cold run read %d hdfs bytes, %d blocks; the cache cannot have been empty", bytes, blocks)
	}
	if bytes, blocks := run(); bytes != 0 || blocks != 0 {
		t.Fatalf("warm run read %d hdfs bytes and %d blocks; every block the cold run decoded should be cached", bytes, blocks)
	}
}

// TestUpdateSkipsUntouchedBlocks moves one row's value far outside every
// block's MinMax summary. The UPDATE publishes no metadata generation, and a
// range query over the new value afterwards reads the blocks it read before
// plus the one block holding the modified row — its span is the only one
// whose deltas set the column — and finds that row.
func TestUpdateSkipsUntouchedBlocks(t *testing.T) {
	e, err := New(Config{
		Nodes:           []string{"node1"},
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "d", Type: vector.TInt64}}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := range 10000 {
		b.AppendRow(int64(i), int64(i))
	}
	if err := e.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	q := plan.Aggregate(plan.Filter(plan.Scan("t", "d"), plan.And(
		plan.GE(plan.Col("d"), plan.Int(5000)), plan.LT(plan.Col("d"), plan.Int(5100)))),
		nil, plan.A("n", plan.CountStar, plan.Int(1)))
	count := func() (n, blocks int64) {
		t.Helper()
		s0 := e.ScanStats()
		rows, err := queryRows(e, q)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].(int64), e.ScanStats().BlocksRead - s0.BlocksRead
	}
	n0, blocks0 := count()
	if n0 != 100 || blocks0 == 0 {
		t.Fatalf("before the update: %d rows from %d blocks", n0, blocks0)
	}

	meta := e.PartitionMetaForTest("t", 0)
	if n, err := e.UpdateWhere(context.Background(), "t", plan.EQ(plan.Col("k"), plan.Int(200)),
		[]string{"d"}, []plan.Expr{plan.Int(5050)}); err != nil || n != 1 {
		t.Fatalf("update: %d rows, %v", n, err)
	}
	if e.PartitionMetaForTest("t", 0) != meta {
		t.Fatal("the UPDATE published a metadata generation")
	}
	if n, blocks := count(); n != n0+1 || blocks != blocks0+1 {
		t.Fatalf("after the update: %d rows from %d blocks, want %d from %d (the blocks read before plus the modified row's)",
			n, blocks, n0+1, blocks0+1)
	}
}

// TestEmptySkipIntersectionReadsNothing: a float bound no block's summary
// admits reads no block, and neither does an interval that holds no value —
// d > 30 and d < 20, k > 30 and k < 20 — though every summary meets both its
// ends; in code form and in value form alike.
func TestEmptySkipIntersectionReadsNothing(t *testing.T) {
	e, err := New(Config{
		Nodes:           []string{"node1"},
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "d", Type: vector.TFloat64}}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := range 10000 {
		b.AppendRow(int64(i), float64(i))
	}
	if err := e.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	if c, err := e.PartitionMetaForTest("t", 0).Col("d"); err != nil || len(c.Blocks) != 40 {
		t.Fatalf("d is stored in %d blocks, want 40 (%v)", len(c.Blocks), err)
	}
	for _, c := range []struct {
		name string
		col  string
		pred plan.Expr
	}{
		{"d >= 20000", "d", plan.GE(plan.Col("d"), plan.Float(20000))},
		{"d > 30 and d < 20", "d", plan.And(plan.GT(plan.Col("d"), plan.Float(30)), plan.LT(plan.Col("d"), plan.Float(20)))},
		{"k > 30 and k < 20", "k", plan.And(plan.GT(plan.Col("k"), plan.Int(30)), plan.LT(plan.Col("k"), plan.Int(20)))},
	} {
		q := plan.Aggregate(plan.Filter(plan.Scan("t", c.col), c.pred),
			nil, plan.A("n", plan.CountStar, plan.Int(1)))
		for _, disable := range []rewriter.Rules{0, rewriter.CompressedExec} {
			s0 := e.ScanStats()
			res, err := e.Run(context.Background(), q, QueryOptions{Disable: disable}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n, blocks := res.Rows[0][0].(int64), e.ScanStats().BlocksRead-s0.BlocksRead; n != 0 || blocks != 0 {
				t.Errorf("%s, Disable %v: %d rows from %d blocks, want 0 from 0", c.name, disable, n, blocks)
			}
		}
	}
}

// TestSkipBoundPrunesEverySpanOfRejectedBlocks: the skip bound is judged on
// each span's block summary, so every span of a block the bound rejects is
// read as a span and pruned — in code form and in value form alike — and
// only the admitted block is decoded.
func TestSkipBoundPrunesEverySpanOfRejectedBlocks(t *testing.T) {
	e, err := New(Config{
		Nodes:           []string{"node1"},
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "d", Type: vector.TInt64}}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := range 10000 {
		b.AppendRow(int64(i), int64(i))
	}
	if err := e.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	c, err := e.PartitionMetaForTest("t", 0).Col("d")
	if err != nil {
		t.Fatal(err)
	}
	bd := expr.Bound{Kind: vector.Int64, IntLo: 5000, IntHi: 5099}
	var rejected, rejectedSpans, admitted int64
	for i := range c.Blocks {
		if c.Blocks[i].Admits(bd) {
			admitted++
			continue
		}
		rejected++
		rejectedSpans += int64((c.Blocks[i].Rows + vector.MaxSize - 1) / vector.MaxSize)
	}
	if rejected == 0 || admitted != 1 {
		t.Fatalf("d is stored in %d blocks, %d of them admitted; want one admitted among several", len(c.Blocks), admitted)
	}
	q := plan.Aggregate(plan.Filter(plan.Scan("t", "d"), plan.And(
		plan.GE(plan.Col("d"), plan.Int(5000)), plan.LT(plan.Col("d"), plan.Int(5100)))),
		nil, plan.A("n", plan.CountStar, plan.Int(1)))
	for _, disable := range []rewriter.Rules{0, rewriter.CompressedExec} {
		s0 := e.ScanStats()
		res, err := e.Run(context.Background(), q, QueryOptions{Disable: disable}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s1 := e.ScanStats()
		if n, blocks, pruned := res.Rows[0][0].(int64), s1.BlocksRead-s0.BlocksRead, s1.SpansPruned-s0.SpansPruned; n != 100 || blocks != admitted || pruned != rejectedSpans {
			t.Errorf("Disable %v: %d rows from %d blocks, %d spans pruned; want 100 from %d, %d pruned (every span of the %d rejected blocks)",
				disable, n, blocks, pruned, admitted, rejectedSpans, rejected)
		}
	}
}

// TestTwoSkipBoundsReadOnlySpansBothAdmit: skip bounds on two columns —
// a float and a string one here — are judged span by span on the blocks of
// each, so a span is read only when both bounds admit its blocks, in code
// form and in value form alike, and the rows are those of the predicate.
func TestTwoSkipBoundsReadOnlySpansBothAdmit(t *testing.T) {
	e, err := New(Config{
		Nodes:           []string{"node1"},
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "d", Type: vector.TFloat64}, {Name: "s", Type: vector.TString}}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := range 10000 {
		b.AppendRow(int64(i), float64(i), fmt.Sprintf("%05d", i))
	}
	if err := e.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	meta := e.PartitionMetaForTest("t", 0)
	dc, err := meta.Col("d")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := meta.Col("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Blocks) != len(sc.Blocks) {
		t.Fatalf("d is stored in %d blocks, s in %d; the test wants them aligned", len(dc.Blocks), len(sc.Blocks))
	}
	dBound := expr.Bound{Kind: vector.Float64, FloatLo: 3000, FloatHi: math.Inf(1)}
	sBound := expr.Bound{Kind: vector.String, StrHi: "05100", HasStrHi: true}
	var both, dOnly, sOnly int64
	for i := range dc.Blocks {
		if dc.Blocks[i].RowStart != sc.Blocks[i].RowStart || dc.Blocks[i].Rows != sc.Blocks[i].Rows {
			t.Fatalf("block %d of d and of s cover different rows; the test wants them aligned", i)
		}
		d, s := dc.Blocks[i].Admits(dBound), sc.Blocks[i].Admits(sBound)
		switch {
		case d && s:
			both++
		case d:
			dOnly++
		case s:
			sOnly++
		}
	}
	if both == 0 || dOnly == 0 || sOnly == 0 {
		t.Fatalf("blocks admitted: %d by both bounds, %d by d's alone, %d by s's alone; want some of each", both, dOnly, sOnly)
	}
	q := plan.Aggregate(plan.Filter(plan.Scan("t", "d", "s"), plan.And(
		plan.GE(plan.Col("d"), plan.Float(3000)), plan.LT(plan.Col("s"), plan.Str("05100")))),
		nil, plan.A("n", plan.CountStar, plan.Int(1)))
	for _, disable := range []rewriter.Rules{0, rewriter.CompressedExec} {
		s0 := e.ScanStats()
		res, err := e.Run(context.Background(), q, QueryOptions{Disable: disable}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, blocks := res.Rows[0][0].(int64), e.ScanStats().BlocksRead-s0.BlocksRead; n != 2100 || blocks != 2*both {
			t.Errorf("Disable %v: %d rows from %d blocks, want 2100 from %d (d's and s's of the %d blocks both bounds admit)",
				disable, n, blocks, 2*both, both)
		}
	}
}

// TestUpdateIntoBoundSparesRejectedSpan: an UPDATE publishes no summary, so
// a span whose block a float skip bound rejects is read only when its own
// deltas set the column to a value the bound admits — one more block for a
// row moved into the bound, none for a row moved further out — in code form
// and in value form alike.
func TestUpdateIntoBoundSparesRejectedSpan(t *testing.T) {
	e, err := New(Config{
		Nodes:           []string{"node1"},
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "d", Type: vector.TFloat64}}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := range 10000 {
		b.AppendRow(int64(i), float64(i))
	}
	if err := e.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	q := plan.Aggregate(plan.Filter(plan.Scan("t", "d"), plan.And(
		plan.GE(plan.Col("d"), plan.Float(5000)), plan.LT(plan.Col("d"), plan.Float(5100)))),
		nil, plan.A("n", plan.CountStar, plan.Int(1)))
	forms := []rewriter.Rules{0, rewriter.CompressedExec}
	count := func(disable rewriter.Rules) (n, blocks int64) {
		t.Helper()
		s0 := e.ScanStats()
		res, err := e.Run(context.Background(), q, QueryOptions{Disable: disable}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64), e.ScanStats().BlocksRead - s0.BlocksRead
	}
	var blocks0 [2]int64
	for i, disable := range forms {
		var n int64
		if n, blocks0[i] = count(disable); n != 100 || blocks0[i] == 0 {
			t.Fatalf("Disable %v before the updates: %d rows from %d blocks", disable, n, blocks0[i])
		}
	}
	for _, u := range []struct {
		k    int64
		d    float64
		what string
	}{
		{200, 5050, "a row moved into the bound"},
		{300, 20000, "a row moved further out"},
	} {
		if n, err := e.UpdateWhere(context.Background(), "t", plan.EQ(plan.Col("k"), plan.Int(u.k)),
			[]string{"d"}, []plan.Expr{plan.Float(u.d)}); err != nil || n != 1 {
			t.Fatalf("update of k=%d: %d rows, %v", u.k, n, err)
		}
		for i, disable := range forms {
			if n, blocks := count(disable); n != 101 || blocks != blocks0[i]+1 {
				t.Errorf("Disable %v after %s: %d rows from %d blocks, want 101 from %d",
					disable, u.what, n, blocks, blocks0[i]+1)
			}
		}
	}
}
