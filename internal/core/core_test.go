package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/expr"
	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// queryRows runs a plan on the one query path with default options.
func queryRows(e *Engine, q plan.Node) ([][]any, error) {
	res, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func testEngine(t *testing.T, nodes int) *Engine {
	t.Helper()
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, fmt.Sprintf("node%d", i+1))
	}
	e, err := New(Config{
		Nodes:          names,
		ThreadsPerNode: 2,
		BlockSize:      1 << 16,
		Format:         colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		MsgBytes:       4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var (
	ordersSchema = vector.Schema{
		{Name: "o_orderkey", Type: vector.TInt64},
		{Name: "o_date", Type: vector.TDate},
		{Name: "o_total", Type: vector.TFloat64},
	}
	itemsSchema = vector.Schema{
		{Name: "i_orderkey", Type: vector.TInt64},
		{Name: "i_suppkey", Type: vector.TInt64},
		{Name: "i_qty", Type: vector.TFloat64},
	}
	suppSchema = vector.Schema{
		{Name: "s_suppkey", Type: vector.TInt64},
		{Name: "s_name", Type: vector.TString},
	}
)

// setupTables creates orders (partitioned+clustered on o_orderkey), items
// (partitioned+clustered on i_orderkey, 3 items per order), and supplier
// (replicated, 10 rows).
func setupTables(t *testing.T, e *Engine, orders int) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.CreateTable(rewriter.TableInfo{
		Name: "orders", Schema: ordersSchema,
		PartitionKey: "o_orderkey", Partitions: 4, ClusteredOn: "o_orderkey",
	}))
	must(e.CreateTable(rewriter.TableInfo{
		Name: "items", Schema: itemsSchema,
		PartitionKey: "i_orderkey", Partitions: 4, ClusteredOn: "i_orderkey",
	}))
	must(e.CreateTable(rewriter.TableInfo{Name: "supplier", Schema: suppSchema}))

	ob := vector.NewBatchForSchema(ordersSchema, orders)
	ib := vector.NewBatchForSchema(itemsSchema, orders*3)
	for i := 0; i < orders; i++ {
		// Dates correlate with the order key (time-ordered fact table),
		// which is what makes MinMax skipping effective on date ranges.
		ob.AppendRow(int64(i), vector.MustDate("1995-01-01")+int32(i/11), float64(i))
		for j := 0; j < 3; j++ {
			ib.AppendRow(int64(i), int64((i+j)%10), float64(j+1))
		}
	}
	sb := vector.NewBatchForSchema(suppSchema, 10)
	for i := 0; i < 10; i++ {
		sb.AppendRow(int64(i), fmt.Sprintf("supp-%d", i))
	}
	must(e.Load("orders", []*vector.Batch{ob}))
	must(e.Load("items", []*vector.Batch{ib}))
	must(e.Load("supplier", []*vector.Batch{sb}))
}

func TestLoadAndScanCounts(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 1000)
	for _, tc := range []struct {
		table string
		want  int64
	}{{"orders", 1000}, {"items", 3000}, {"supplier", 10}} {
		if got, err := e.TableRows(tc.table); err != nil || got != tc.want {
			t.Fatalf("%s rows = %d err=%v", tc.table, got, err)
		}
		rows, err := queryRows(e, plan.Scan(tc.table))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != tc.want {
			t.Fatalf("%s scan = %d rows", tc.table, len(rows))
		}
	}
}

func TestScansAreShortCircuit(t *testing.T) {
	// The §3 claim: with instrumented placement, all table IO is local.
	e := testEngine(t, 3)
	setupTables(t, e, 2000)
	e.FS().ResetStats()
	if _, err := queryRows(e, plan.Scan("orders")); err != nil {
		t.Fatal(err)
	}
	if _, err := queryRows(e, plan.Scan("items", "i_orderkey", "i_qty")); err != nil {
		t.Fatal(err)
	}
	s := e.FS().Stats()
	if s.RemoteBytesRead != 0 {
		t.Fatalf("remote reads on healthy cluster: %+v", s)
	}
	if s.LocalBytesRead == 0 {
		t.Fatal("no IO recorded")
	}
}

func TestColocatedJoinQuery(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 500)
	q := plan.Join(plan.InnerJoin,
		plan.Scan("items", "i_orderkey", "i_qty"),
		plan.Scan("orders", "o_orderkey", "o_total"),
		[]string{"i_orderkey"}, []string{"o_orderkey"})
	explain, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "MergeJoin[0,co-located]") {
		t.Fatalf("expected co-located merge join:\n%s", explain)
	}
	rows, err := queryRows(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1500 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Join keys must match on every row.
	for _, r := range rows {
		if r[0].(int64) != r[2].(int64) {
			t.Fatalf("row %v", r)
		}
	}
}

func TestFigure5StyleQuery(t *testing.T) {
	// The §5 example: items ⋈ orders (co-located) ⋈ supplier (replicated),
	// group by supplier, top-k.
	e := testEngine(t, 3)
	setupTables(t, e, 600)
	q := plan.Top(
		plan.Aggregate(
			plan.Join(plan.InnerJoin,
				plan.Join(plan.InnerJoin,
					plan.Scan("items", "i_orderkey", "i_suppkey"),
					plan.Scan("orders", "o_orderkey", "o_date"),
					[]string{"i_orderkey"}, []string{"o_orderkey"}),
				plan.Scan("supplier"),
				[]string{"i_suppkey"}, []string{"s_suppkey"}),
			[]string{"s_suppkey", "s_name"},
			plan.AStar("l_count")),
		5, plan.Desc(plan.Col("l_count")), plan.Asc(plan.Col("s_suppkey")))
	res, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// 600 orders × 3 items distributed over 10 suppliers = 180 per
	// supplier.
	if res.Rows[0][2].(int64) != 180 {
		t.Fatalf("top row = %v", res.Rows[0])
	}
	if !strings.Contains(res.Explain, "replicated-build") {
		t.Fatalf("expected replicated build:\n%s", res.Explain)
	}
}

func TestMinMaxSkippingInQueries(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 4000)
	q := plan.Aggregate(
		plan.Filter(plan.Scan("orders", "o_orderkey", "o_date"),
			plan.Between(plan.Col("o_date"), plan.Date("1995-01-01"), plan.Date("1995-01-31"))),
		nil, plan.AStar("n"))
	e.FS().ResetStats()
	rows, err := queryRows(e, q)
	if err != nil {
		t.Fatal(err)
	}
	skipIO := e.FS().Stats().LocalBytesRead
	want := int64(0)
	for i := 0; i < 4000; i++ {
		if int32(i/11) <= 30 {
			want++
		}
	}
	if rows[0][0].(int64) != want {
		t.Fatalf("count = %v, want %d", rows[0][0], want)
	}
	// The same rows through a predicate no bound is derived from (NOT implies
	// nothing) read more: the skipping came from the predicate's bounds.
	q2 := plan.Aggregate(
		plan.Filter(plan.Scan("orders", "o_orderkey", "o_date"),
			plan.And(plan.Not(plan.LT(plan.Col("o_date"), plan.Date("1995-01-01"))),
				plan.Not(plan.GT(plan.Col("o_date"), plan.Date("1995-01-31"))))),
		nil, plan.AStar("n"))
	e = testEngine(t, 3) // a fresh engine: the first query warmed the block cache
	setupTables(t, e, 4000)
	e.FS().ResetStats()
	rows2, err := queryRows(e, q2)
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0][0].(int64) != want {
		t.Fatalf("count without bounds = %v, want %d", rows2[0][0], want)
	}
	full := e.FS().Stats().LocalBytesRead
	if skipIO >= full {
		t.Fatalf("skipping did not reduce IO: %d vs %d", skipIO, full)
	}
}

func TestTrickleInsertVisibleAndPersisted(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)
	nb := vector.NewBatchForSchema(ordersSchema, 5)
	for i := 0; i < 5; i++ {
		nb.AppendRow(int64(100000+i), vector.MustDate("1998-01-01"), float64(9999))
	}
	if err := e.InsertRows(context.Background(), "orders", nb); err != nil {
		t.Fatal(err)
	}
	rows, err := queryRows(e, plan.Filter(plan.Scan("orders"), plan.GE(plan.Col("o_orderkey"), plan.Int(100000))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("inserted rows visible = %d", len(rows))
	}
	if got, _ := e.TableRows("orders"); got != 105 {
		t.Fatalf("TableRows = %d", got)
	}
}

func TestTrickleDeleteAndUpdate(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 200)
	n, err := e.DeleteWhere(context.Background(), "orders", plan.LT(plan.Col("o_orderkey"), plan.Int(50)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("deleted %d", n)
	}
	rows, err := queryRows(e, plan.Scan("orders", "o_orderkey"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("rows after delete = %d", len(rows))
	}
	for _, r := range rows {
		if r[0].(int64) < 50 {
			t.Fatalf("deleted key %v still visible", r[0])
		}
	}
	// Update: double o_total of keys in [50, 60).
	n, err = e.UpdateWhere(context.Background(), "orders",
		plan.And(plan.GE(plan.Col("o_orderkey"), plan.Int(50)), plan.LT(plan.Col("o_orderkey"), plan.Int(60))),
		[]string{"o_total"}, []plan.Expr{plan.Mul(plan.Col("o_total"), plan.Float(2))})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("updated %d", n)
	}
	rows, err = queryRows(e, plan.Filter(plan.Scan("orders"), plan.EQ(plan.Col("o_orderkey"), plan.Int(55))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].(float64) != 110 {
		t.Fatalf("updated row = %v", rows)
	}
}

func TestUpdatePropagationTailInserts(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)
	nb := vector.NewBatchForSchema(ordersSchema, 64)
	for i := 0; i < 64; i++ {
		nb.AppendRow(int64(200000+i), vector.MustDate("1998-06-01"), float64(i))
	}
	if err := e.InsertRows(context.Background(), "orders", nb); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := e.PropagatePartition(context.Background(), "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	// All PDTs empty; rows live in stable storage.
	var stable int64
	for _, part := range e.tables["orders"].Parts {
		st, _ := e.mgr.Part(part.Key)
		ins, del, mod := st.Write.Counts()
		ri, rd, rm := st.Read.Counts()
		if ins+del+mod+ri+rd+rm != 0 {
			t.Fatal("PDTs not empty after propagation")
		}
		stable += part.CurrentMeta().Rows
	}
	if stable != 164 {
		t.Fatalf("stable rows = %d", stable)
	}
	rows, err := queryRows(e, plan.Scan("orders", "o_orderkey"))
	if err != nil || len(rows) != 164 {
		t.Fatalf("rows = %d err=%v", len(rows), err)
	}
}

func TestUpdatePropagationRewrite(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 400)
	if _, err := e.DeleteWhere(context.Background(), "orders", plan.LT(plan.Col("o_orderkey"), plan.Int(100))); err != nil {
		t.Fatal(err)
	}
	gensBefore := map[int]int{}
	for p, part := range e.tables["orders"].Parts {
		gensBefore[p] = part.CurrentMeta().Gen
	}
	for p := 0; p < 4; p++ {
		if err := e.PropagatePartition(context.Background(), "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	rewrote := false
	var stable int64
	for p, part := range e.tables["orders"].Parts {
		if part.CurrentMeta().Gen > gensBefore[p] {
			rewrote = true
		}
		stable += part.CurrentMeta().Rows
	}
	if !rewrote {
		t.Fatal("deletes should force a partition rewrite")
	}
	if stable != 300 {
		t.Fatalf("stable rows = %d", stable)
	}
	rows, err := queryRows(e, plan.Scan("orders", "o_orderkey"))
	if err != nil || len(rows) != 300 {
		t.Fatalf("rows = %d err=%v", len(rows), err)
	}
}

func TestLogShippingForReplicatedTables(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 50)
	nb := vector.NewBatchForSchema(suppSchema, 1)
	nb.AppendRow(int64(99), "new-supp")
	if err := e.InsertRows(context.Background(), "supplier", nb); err != nil {
		t.Fatal(err)
	}
	if e.shippedEntries.Load() == 0 {
		t.Fatal("replicated-table commit should ship log entries")
	}
	rows, err := queryRows(e, plan.Scan("supplier"))
	if err != nil || len(rows) != 11 {
		t.Fatalf("rows = %d err=%v", len(rows), err)
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	e := testEngine(t, 4)
	setupTables(t, e, 1000)
	before, err := queryRows(e, plan.Aggregate(plan.Scan("items", "i_qty"), nil,
		plan.A("s", plan.Sum, plan.Col("i_qty"))))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	if len(e.Nodes()) != 3 {
		t.Fatalf("workers = %v", e.Nodes())
	}
	// Responsibilities moved to survivors.
	for _, table := range []string{"orders", "items"} {
		for _, part := range e.tables[table].Parts {
			if part.Responsible == "node2" {
				t.Fatalf("%s partition still assigned to dead node", table)
			}
		}
	}
	after, err := queryRows(e, plan.Aggregate(plan.Scan("items", "i_qty"), nil,
		plan.A("s", plan.Sum, plan.Col("i_qty"))))
	if err != nil {
		t.Fatal(err)
	}
	if before[0][0] != after[0][0] {
		t.Fatalf("sum changed after failure: %v -> %v", before[0][0], after[0][0])
	}
	// After re-replication, scans are local again.
	e.FS().ResetStats()
	if _, err := queryRows(e, plan.Scan("items", "i_orderkey")); err != nil {
		t.Fatal(err)
	}
	if s := e.FS().Stats(); s.RemoteBytesRead != 0 {
		t.Fatalf("scans not local after recovery: %+v", s)
	}
}

func TestQueryProfile(t *testing.T) {
	e := testEngine(t, 2)
	setupTables(t, e, 300)
	res, err := e.Run(context.Background(), plan.Aggregate(plan.Scan("items", "i_qty"), nil,
		plan.A("s", plan.Sum, plan.Col("i_qty"))), QueryOptions{Profile: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Operators) == 0 {
		t.Fatal("no profile entries")
	}
	out := obs.FormatOps(res.Operators, len(res.Operators))
	if !strings.Contains(out, "MScan") {
		t.Fatalf("profile missing scans:\n%s", out)
	}
}

func TestCreateTableValidation(t *testing.T) {
	e := testEngine(t, 2)
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: suppSchema, PartitionKey: "s_name"}); err == nil {
		t.Fatal("string partition key should fail")
	}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: suppSchema}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: suppSchema}); err == nil {
		t.Fatal("duplicate table should fail")
	}
	if _, err := e.Table("ghost"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

// TestWorkerOrderIsByName pins the worker indexing contract: workers are
// indexed in name order whatever order Config.Nodes lists them in, and
// partition responsibility (hence affinity placement and every stored
// layout) follows that index.
func TestWorkerOrderIsByName(t *testing.T) {
	for _, tc := range []struct {
		nodes, want []string
		responsible []string // of the 6 partitions of a partitioned table
	}{
		{
			nodes:       []string{"node1", "node2", "node3"},
			want:        []string{"node1", "node2", "node3"},
			responsible: []string{"node1", "node1", "node2", "node2", "node3", "node3"},
		},
		{
			nodes:       []string{"w2", "w10", "w1"},
			want:        []string{"w1", "w10", "w2"},
			responsible: []string{"w1", "w1", "w10", "w10", "w2", "w2"},
		},
	} {
		e, err := New(Config{Nodes: tc.nodes})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Nodes(); !slices.Equal(got, tc.want) {
			t.Errorf("Nodes() for %v = %v, want %v", tc.nodes, got, tc.want)
		}
		if err := e.CreateTable(rewriter.TableInfo{
			Name: "orders", Schema: ordersSchema, PartitionKey: "o_orderkey", Partitions: 6,
		}); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, part := range e.tables["orders"].Parts {
			got = append(got, part.Responsible)
		}
		if !slices.Equal(got, tc.responsible) {
			t.Errorf("responsible nodes for %v = %v, want %v", tc.nodes, got, tc.responsible)
		}
	}
}

func TestQueryAfterInsertKeepsPerformance(t *testing.T) {
	// Miniature of the §8 GeoDiff experiment: query timings before and
	// after trickle updates stay in the same ballpark because merging is
	// positional. Here we just assert correctness of results post-update.
	e := testEngine(t, 3)
	setupTables(t, e, 500)
	q := plan.Aggregate(
		plan.Join(plan.InnerJoin,
			plan.Scan("items", "i_orderkey", "i_qty"),
			plan.Scan("orders", "o_orderkey"),
			[]string{"i_orderkey"}, []string{"o_orderkey"}),
		nil, plan.A("total", plan.Sum, plan.Col("i_qty")))
	before, err := queryRows(e, q)
	if err != nil {
		t.Fatal(err)
	}
	// Insert one new order with items.
	ob := vector.NewBatchForSchema(ordersSchema, 1)
	ob.AppendRow(int64(7777777), vector.MustDate("1997-01-01"), 1.0)
	ib := vector.NewBatchForSchema(itemsSchema, 1)
	ib.AppendRow(int64(7777777), int64(3), 100.0)
	if err := e.InsertRows(context.Background(), "orders", ob); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows(context.Background(), "items", ib); err != nil {
		t.Fatal(err)
	}
	after, err := queryRows(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if after[0][0].(float64) != before[0][0].(float64)+100 {
		t.Fatalf("sum %v -> %v, want +100", before[0][0], after[0][0])
	}
}

// TestMalformedScanRequests checks the scan entry points return errors —
// not panics — on out-of-range partitions and a predicate past the
// projection, and that a closed scan stays closed.
func TestMalformedScanRequests(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)

	ctx := context.Background()
	spec := func(table string, cols ...string) rewriter.ScanSpec {
		return rewriter.ScanSpec{Table: table, Cols: cols, Codes: true}
	}
	if _, err := e.PartitionScan(ctx, spec("orders", "o_orderkey"), -1, 0); err == nil {
		t.Fatal("PartitionScan(-1) did not error")
	}
	if _, err := e.PartitionScan(ctx, spec("orders", "o_orderkey"), 99, 0); err == nil {
		t.Fatal("PartitionScan(99) did not error")
	}
	if _, err := e.PartitionScan(ctx, spec("nosuch", "x"), 0, 0); err == nil {
		t.Fatal("PartitionScan on unknown table did not error")
	}
	if _, err := e.ReplicatedScan(ctx, spec("nosuch", "x"), 0); err == nil {
		t.Fatal("ReplicatedScan on unknown table did not error")
	}
	if err := e.PropagatePartition(context.Background(), "orders", 99); err == nil {
		t.Fatal("PropagatePartition(99) did not error")
	}

	// A predicate reading a column the scan does not project is a malformed
	// plan and must surface at Open, not scan everything.
	scan, err := e.PartitionScan(ctx, rewriter.ScanSpec{Table: "orders", Cols: []string{"o_orderkey"},
		Filter: expr.LT(expr.Col(3, vector.Int64), expr.ConstInt64(5))}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err == nil || !strings.Contains(err.Error(), "column 3") {
		t.Fatalf("Open with a predicate past the projection: err=%v, want column-out-of-range", err)
	}
	scan, err = e.PartitionScan(ctx, spec("supplier", "s_suppkey", "s_name"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.Len()
	}
	if n != 10 {
		t.Fatalf("scanned %d rows, want 10", n)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and a closed scan reports end-of-scan.
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := scan.Next(); err != nil || b != nil {
		t.Fatalf("Next after Close: batch=%v err=%v", b, err)
	}
}

// TestUpdateWhereRejectsKindMismatch checks that a SET expression whose
// physical kind does not match the column is rejected at bind time instead
// of corrupting the PDT.
func TestUpdateWhereRejectsKindMismatch(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)
	_, err := e.UpdateWhere(context.Background(), "orders",
		plan.EQ(plan.Col("o_orderkey"), plan.Int(1)),
		[]string{"o_total"}, []plan.Expr{plan.Str("oops")})
	if err == nil || !strings.Contains(err.Error(), "does not match column kind") {
		t.Fatalf("kind mismatch not rejected: %v", err)
	}
	_, err = e.UpdateWhere(context.Background(), "orders",
		plan.Col("o_total"), // not a boolean predicate
		[]string{"o_total"}, []plan.Expr{plan.Float(1)})
	if err == nil || !strings.Contains(err.Error(), "not boolean") {
		t.Fatalf("non-boolean predicate not rejected: %v", err)
	}
}
