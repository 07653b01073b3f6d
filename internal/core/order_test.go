package core

import (
	"context"
	"strings"
	"testing"

	"vectorh/internal/exec"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// itemRows is a batch of items rows with the given order keys.
func itemRows(keys ...int64) *vector.Batch {
	b := vector.NewBatchForSchema(itemsSchema, len(keys))
	for _, k := range keys {
		b.AppendRow(k, int64(1), float64(1))
	}
	return b
}

// TestClusteredOrderTracking: the catalog reports a table's clustered order
// exactly until a load, insert or update places a key below the highest one
// its partition holds.
func TestClusteredOrderTracking(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		write   func(e *Engine) error
		ordered bool
	}{
		{"nothing", func(*Engine) error { return nil }, true},
		{"insert above", func(e *Engine) error { return e.InsertRows(ctx, "items", itemRows(500, 500, 501)) }, true},
		{"insert below", func(e *Engine) error { return e.InsertRows(ctx, "items", itemRows(3)) }, false},
		{"load above", func(e *Engine) error { return e.Load("items", []*vector.Batch{itemRows(700, 600)}) }, true},
		{"load below", func(e *Engine) error { return e.Load("items", []*vector.Batch{itemRows(800, 5)}) }, false},
		{"delete", func(e *Engine) error {
			_, err := e.DeleteWhere(ctx, "items", plan.LT(plan.Col("i_orderkey"), plan.Int(10)))
			return err
		}, true},
		{"update other column", func(e *Engine) error {
			_, err := e.UpdateWhere(ctx, "items", plan.LT(plan.Col("i_orderkey"), plan.Int(10)),
				[]string{"i_qty"}, []plan.Expr{plan.Float(7)})
			return err
		}, true},
		{"update clustered column", func(e *Engine) error {
			_, err := e.UpdateWhere(ctx, "items", plan.EQ(plan.Col("i_orderkey"), plan.Int(10)),
				[]string{"i_orderkey"}, []plan.Expr{plan.Int(10)})
			return err
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t, 3)
			setupTables(t, e, 100)
			if err := tc.write(e); err != nil {
				t.Fatal(err)
			}
			info, err := e.Table("items")
			if err != nil {
				t.Fatal(err)
			}
			if got := info.ClusteredOn == "i_orderkey"; got != tc.ordered {
				t.Fatalf("ClusteredOn = %q, want ordered = %v", info.ClusteredOn, tc.ordered)
			}
			if info, _ := e.Table("orders"); info.ClusteredOn != "o_orderkey" {
				t.Fatalf("orders lost its order to a write on items")
			}
		})
	}
}

// TestScanRestoresOrderForEarlierPlan: a plan rewritten while items was
// ordered merge-joins it; a write that breaks the order before the plan's
// scans open must not cost a row.
func TestScanRestoresOrderForEarlierPlan(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)
	q := plan.Join(plan.InnerJoin,
		plan.Scan("items", "i_orderkey", "i_qty"),
		plan.Scan("orders", "o_orderkey", "o_total"),
		[]string{"i_orderkey"}, []string{"o_orderkey"})
	phys, err := rewriter.Rewrite(q, e, rewriter.DefaultOptions(len(e.Nodes()), e.cfg.ThreadsPerNode))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rewriter.Explain(phys), "MergeJoin") {
		t.Fatalf("expected a merge join:\n%s", rewriter.Explain(phys))
	}
	if err := e.InsertRows(context.Background(), "items", itemRows(0)); err != nil {
		t.Fatal(err)
	}
	streams, err := rewriter.Instantiate(phys, &rewriter.Env{Net: e.Net(), Provider: e,
		Nodes: len(e.Nodes()), Threads: e.cfg.ThreadsPerNode, MsgBytes: e.cfg.MsgBytes})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(streams[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 301 {
		t.Fatalf("join returned %d rows, want 301", len(rows))
	}
	for _, r := range rows {
		if r[0].(int64) != r[2].(int64) {
			t.Fatalf("row %v", r)
		}
	}
}
