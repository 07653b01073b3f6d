package core_test

import (
	"context"
	"slices"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// TestPinnedScanOutlivesLaterPublishes holds one scan open across two
// metadata publishes and keeps reading. A scan pins the generation it opened
// on; the files of that generation must stay until it closes, however many
// generations are published meanwhile and whether or not the ones in between
// were ever pinned — and must be gone once it has closed. Deterministic: no
// goroutines, no luck (TestConcurrentReadersWithDMLWriter lost a file to the
// first two of these about once in sixty runs).
func TestPinnedScanOutlivesLaterPublishes(t *testing.T) {
	ctx := context.Background()
	schema := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "v", Type: vector.TInt64}}
	rows := func(from, n int) []*vector.Batch {
		b := vector.NewBatchForSchema(schema, n)
		for i := from; i < from+n; i++ {
			b.AppendRow(int64(i), int64(i%7))
		}
		return []*vector.Batch{b}
	}
	// Two full blocks and a partial one: a partial-chunk file exists.
	const loaded = 5000
	// update publishes a MinMax widening, which drops no file.
	update := func(t *testing.T, e *core.Engine) {
		if n, err := e.UpdateWhere(ctx, "t", plan.EQ(plan.Col("k"), plan.Int(3)),
			[]string{"v"}, []plan.Expr{plan.Int(1000)}); err != nil || n != 1 {
			t.Fatalf("update: %d rows, %v", n, err)
		}
	}
	propagate := func(t *testing.T, e *core.Engine) {
		if err := e.PropagatePartition(ctx, "t", 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name      string
		publishes func(t *testing.T, e *core.Engine)
	}{
		{"widen then append", func(t *testing.T, e *core.Engine) {
			update(t, e)
			// The append supersedes the partial-chunk file. (That Load drops
			// the update still in the PDTs is ROADMAP item 7's to fix; only
			// the files matter here.)
			if err := e.Load("t", rows(loaded, 100)); err != nil {
				t.Fatal(err)
			}
		}},
		{"widen then rewrite", func(t *testing.T, e *core.Engine) {
			update(t, e)
			propagate(t, e) // a modify is not a tail insert: rewrites every chunk file
		}},
		{"append then rewrite", func(t *testing.T, e *core.Engine) {
			if err := e.InsertRows(ctx, "t", rows(loaded, 100)[0]); err != nil {
				t.Fatal(err)
			}
			propagate(t, e) // tail inserts only: appends, superseding the partial-chunk file
			if _, err := e.DeleteWhere(ctx, "t", plan.EQ(plan.Col("k"), plan.Int(7))); err != nil {
				t.Fatal(err)
			}
			propagate(t, e) // rewrites the chunk files the first two generations share
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := core.New(core.Config{
				Nodes:           []string{"n1"},
				Format:          colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
				BlockCacheBytes: -1, // every block read goes to its file
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CreateTable(rewriter.TableInfo{Name: "t", Schema: schema, PartitionKey: "k", Partitions: 1}); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("t", rows(0, loaded)); err != nil {
				t.Fatal(err)
			}
			pinned := e.PartitionMetaForTest("t", 0).Files()

			scan, err := e.PartitionScan(ctx, rewriter.ScanSpec{Table: "t", Cols: schema.Names()}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := scan.Open(); err != nil {
				t.Fatal(err)
			}
			first, err := scan.Next()
			if err != nil || first == nil {
				t.Fatalf("first batch: %v, %v", first, err)
			}
			got := first.Len()

			c.publishes(t, e)

			for _, f := range pinned {
				if !e.FS().Exists(f) {
					t.Errorf("%s was deleted under a scan that still pins its generation", f)
				}
			}
			for {
				b, err := scan.Next()
				if err != nil {
					t.Fatalf("the pinned scan lost its snapshot: %v", err)
				}
				if b == nil {
					break
				}
				got += b.Len()
			}
			if got != loaded {
				t.Errorf("the pinned scan returned %d rows, its snapshot holds %d", got, loaded)
			}
			if err := scan.Close(); err != nil {
				t.Fatal(err)
			}

			current := e.PartitionMetaForTest("t", 0).Files()
			for _, f := range pinned {
				if !slices.Contains(current, f) && e.FS().Exists(f) {
					t.Errorf("%s is referenced by no generation and pinned by no scan, and still exists", f)
				}
			}
			rowsNow, err := queryRows(e, plan.Aggregate(plan.Scan("t"), nil, plan.A("n", plan.CountStar, plan.Int(1))))
			if err != nil || len(rowsNow) != 1 {
				t.Fatalf("count after the publishes: %v, %v", rowsNow, err)
			}
		})
	}
}
