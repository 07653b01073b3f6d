package core

import (
	"context"
	"fmt"
	"testing"

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
