package core

import (
	"context"
	"fmt"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/expr"
	"vectorh/internal/pdt"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

var stackedSchema = vector.Schema{
	{Name: "key", Type: vector.TInt64},
	{Name: "status", Type: vector.TString},
	{Name: "qty", Type: vector.TInt64},
	{Name: "price", Type: vector.TFloat64},
}

// mergedReference decodes a partition's stable image densely and passes it
// through the Read layer's MergeRange and then the Write layer's, one layer
// at a time, then appends the tails: the partition's visible rows in
// position order, by copying and without composing the layers.
func mergedReference(t *testing.T, e *Engine, part *Partition) []*vector.Batch {
	t.Helper()
	read, write, err := e.mgr.Snapshot(part.Key)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := colstore.NewScanner(e.fs, part.CurrentMeta(), part.Responsible, stackedSchema.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	cols := identityCols(len(stackedSchema))
	rm, wm := pdt.NewMerger(read, stackedSchema, cols), pdt.NewMerger(write, stackedSchema, cols)
	var out []*vector.Batch
	merge := func(b *vector.Batch, start int64) {
		b1, rid, err := rm.MergeRange(b, start)
		if err == nil {
			b1, _, err = wm.MergeRange(b1, rid)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b1)
	}
	for {
		b, start, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		merge(b, start)
	}
	if tail, rid := rm.Tail(); tail != nil {
		b1, _, err := wm.MergeRange(tail, rid)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b1)
	}
	if tail, _ := wm.Tail(); tail != nil {
		out = append(out, tail)
	}
	return out
}

// drainScan runs one partition scan to the end and boxes its rows in order.
func drainScan(t *testing.T, e *Engine, part *Partition, spec rewriter.ScanSpec) [][]any {
	t.Helper()
	op, err := e.PartitionScan(context.Background(), spec, part.CurrentMeta().Partition, e.nodeSlots()[part.Responsible])
	if err != nil {
		t.Fatal(err)
	}
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
		rows = vector.BoxRows(rows, b)
	}
}

// filterRows keeps the reference rows that satisfy pred.
func filterRows(t *testing.T, ref []*vector.Batch, pred expr.Expr) [][]any {
	t.Helper()
	f, err := expr.CompileFilter(pred)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, b := range ref {
		sel, err := f.Match(b, b.Len())
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sel {
			rows = append(rows, b.Row(int(i)))
		}
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want [][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d col %d = %v, reference %v (row %v vs %v)", what, i, c, got[i][c], want[i][c], got[i], want[i])
			}
		}
	}
}

// TestStackedDeltaScanParity drives a table into a state where both PDT
// layers hold deltas over the same rows — the Write layer deleting and
// modifying rows the Read layer deleted around, modified or appended, plus
// rows a transaction inserted inside the stable image in either layer — and
// checks every partition's scans row for row against a dense decode passed
// through MergeRange: in storage order, Ordered, and under predicates with
// code execution on and off (one of them equal to a status no block
// dictionary holds, set by a modify).
func TestStackedDeltaScanParity(t *testing.T) {
	e := testEngine(t, 3)
	ctx := context.Background()
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "stacked", Schema: stackedSchema, PartitionKey: "key", Partitions: 2, ClusteredOn: "key",
	}); err != nil {
		t.Fatal(err)
	}
	// Statuses in no period LZ could exploit, so the column's blocks are
	// dictionary-encoded and the dictionary verdict is in play.
	states := []string{"open", "paid", "void", "held"}
	status := func(i int) string { return states[uint32(i)*2654435761>>29%4] }
	b := vector.NewBatchForSchema(stackedSchema, 3000)
	for i := 0; i < 3000; i++ {
		b.AppendRow(int64(i), status(i), int64(i%50), float64(i)/2)
	}
	if err := e.Load("stacked", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	between := func(lo, hi int64) plan.Expr {
		return plan.And(plan.GE(plan.Col("key"), plan.Int(lo)), plan.LT(plan.Col("key"), plan.Int(hi)))
	}
	del := func(pred plan.Expr) {
		t.Helper()
		if _, err := e.DeleteWhere(ctx, "stacked", pred); err != nil {
			t.Fatal(err)
		}
	}
	set := func(pred plan.Expr, col string, v plan.Expr) {
		t.Helper()
		if _, err := e.UpdateWhere(ctx, "stacked", pred, []string{col}, []plan.Expr{v}); err != nil {
			t.Fatal(err)
		}
	}
	appendRows := func(lo, n int) {
		t.Helper()
		ins := vector.NewBatchForSchema(stackedSchema, n)
		for i := lo; i < lo+n; i++ {
			ins.AppendRow(int64(i), status(i), int64(i%50), float64(i)/2)
		}
		if err := e.InsertRows(ctx, "stacked", ins); err != nil {
			t.Fatal(err)
		}
	}
	tab := e.tables["stacked"]
	// insertInside places a row through Txn.Insert in front of each
	// partition's visible row rid, with that row's key (clustered order
	// holds) and values every block's MinMax summary covers.
	insertInside := func(rid int64) {
		t.Helper()
		tx := e.mgr.Begin()
		for _, part := range tab.Parts {
			key := vector.BoxRows(nil, mergedReference(t, e, part)...)[rid][0].(int64)
			if err := tx.Insert(part.Key, rid, []any{key, "held", int64(3), float64(key) / 2}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// The Read layer's share.
	del(plan.LT(plan.Col("key"), plan.Int(40)))
	del(between(500, 520))
	set(between(1000, 1100), "status", plan.Str("void"))
	set(between(2000, 2050), "qty", plan.Int(49))
	appendRows(5000, 20)
	insertInside(100)
	for _, part := range tab.Parts {
		if err := e.mgr.PropagateWriteToRead(part.Key); err != nil {
			t.Fatal(err)
		}
	}

	// The Write layer's, over the same rows.
	del(between(30, 60))
	set(between(1050, 1150), "status", plan.Str("zulu"))
	set(between(1000, 1010), "price", plan.Float(-1))
	del(between(2040, 2045))
	set(between(5000, 5005), "qty", plan.Int(7))
	del(between(5010, 5013))
	appendRows(6000, 10)
	insertInside(200)

	for _, part := range tab.Parts {
		read, write, err := e.mgr.Snapshot(part.Key)
		if err != nil {
			t.Fatal(err)
		}
		if ri, rd, rm := read.Counts(); ri == 0 || rd == 0 || rm == 0 {
			t.Fatalf("Read layer holds %d/%d/%d inserts/deletes/modifies; every kind is needed", ri, rd, rm)
		}
		if wi, wd, wm := write.Counts(); wi == 0 || wd == 0 || wm == 0 {
			t.Fatalf("Write layer holds %d/%d/%d inserts/deletes/modifies; every kind is needed", wi, wd, wm)
		}
		ref := mergedReference(t, e, part)
		name := fmt.Sprintf("p%d", part.CurrentMeta().Partition)
		for _, p := range []plan.Expr{
			plan.EQ(plan.Col("status"), plan.Str("zulu")),
			plan.EQ(plan.Col("status"), plan.Str("void")),
			plan.And(plan.EQ(plan.Col("status"), plan.Str("held")), plan.LT(plan.Col("qty"), plan.Int(10))),
			plan.And(between(990, 1200), plan.NE(plan.Col("status"), plan.Str("void"))),
			plan.LT(plan.Col("price"), plan.Float(0)),
			between(20, 70),
		} {
			pred, err := p.Bind(stackedSchema)
			if err != nil {
				t.Fatal(err)
			}
			want := filterRows(t, ref, pred)
			for _, codes := range []bool{false, true} { // value form first: it must not cost the code form its dictionaries
				spec := rewriter.ScanSpec{Table: "stacked", Cols: stackedSchema.Names(), Filter: pred, Skip: expr.Bounds(pred), Codes: codes}
				sameRows(t, fmt.Sprintf("%s %s codes=%v", name, pred, codes), drainScan(t, e, part, spec), want)
			}
		}
		all := vector.BoxRows(nil, ref...)
		sameRows(t, name+" storage order", drainScan(t, e, part, rewriter.ScanSpec{Table: "stacked", Cols: stackedSchema.Names()}), all)
		sameRows(t, name+" ordered", drainScan(t, e, part, rewriter.ScanSpec{Table: "stacked", Cols: stackedSchema.Names(), Ordered: true}), all)
	}
	// The same through the planner, end to end.
	zulu := runCodeBoth(t, e, plan.OrderBy(plan.Filter(plan.Scan("stacked", "key", "status"),
		plan.EQ(plan.Col("status"), plan.Str("zulu"))), plan.Asc(plan.Col("key"))))
	if len(zulu) != 100 {
		t.Fatalf("status = 'zulu' selected %d rows, want 100", len(zulu))
	}
}
