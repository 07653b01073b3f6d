// Race/stress coverage for the concurrent serving contract: N goroutines
// querying while a DML writer trickles RF1/RF2-style updates through the
// PDTs, with a low flush threshold so update propagation (tail-insert
// appends AND full partition rewrites) runs under the readers' feet. The
// whole file is meaningful chiefly under `go test -race`.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/plan"
	"vectorh/internal/tpch"
)

// queryRows runs a plan on the one query path with default options.
func queryRows(e *core.Engine, q plan.Node) ([][]any, error) {
	res, err := e.Run(context.Background(), q, core.QueryOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func stressEngine(t *testing.T) (*core.Engine, *tpch.Data) {
	t.Helper()
	e, err := core.New(core.Config{
		Nodes:          []string{"n1", "n2", "n3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
		// Tiny flush threshold: almost every refresh transaction trips
		// update propagation, exercising copy-on-write metadata publishes
		// and deferred file deletion while scans are in flight.
		PDTFlushBytes: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := tpch.Generate(0.005, 3)
	if err := tpch.LoadIntoEngine(e, d, 6); err != nil {
		t.Fatal(err)
	}
	return e, d
}

// TestConcurrentReadersWithDMLWriter is the -race stress gate: 8 goroutines
// run TPC-H queries in a loop while a writer interleaves RF1 inserts, RF2
// deletes and an UPDATE, all racing update propagation.
func TestConcurrentReadersWithDMLWriter(t *testing.T) {
	e, d := stressEngine(t)
	queries := []int{1, 3, 5, 6, 9, 12, 14, 19}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				p, err := tpch.BuildQuery(q, e)
				if err != nil {
					errs <- fmt.Errorf("reader %d Q%d build: %w", r, q, err)
					return
				}
				if _, err := queryRows(e, p); err != nil {
					errs <- fmt.Errorf("reader %d Q%d: %w", r, q, err)
					return
				}
			}
		}(r)
	}

	// The DML writer: RF1 inserts new orders/lineitems, an UPDATE touches
	// priorities (widening MinMax), RF2 deletes the inserted keys again.
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for round := int64(0); round < 4; round++ {
			ob, lb := tpch.RF1(d, 10, 100+round)
			if err := e.InsertRows(context.Background(), "orders", ob); err != nil {
				errs <- fmt.Errorf("rf1 orders: %w", err)
				return
			}
			if err := e.InsertRows(context.Background(), "lineitem", lb); err != nil {
				errs <- fmt.Errorf("rf1 lineitem: %w", err)
				return
			}
			if _, err := e.UpdateWhere(context.Background(), "orders",
				plan.LT(plan.Col("o_orderkey"), plan.Int(100)),
				[]string{"o_orderpriority"}, []plan.Expr{plan.Str("1-URGENT")}); err != nil {
				errs <- fmt.Errorf("update: %w", err)
				return
			}
			keys := tpch.RF2Keys(d, 5, 200+round)
			for _, table := range []string{"lineitem", "orders"} {
				col := "l_orderkey"
				if table == "orders" {
					col = "o_orderkey"
				}
				if _, err := e.DeleteWhere(context.Background(), table, plan.InInt(plan.Col(col), keys...)); err != nil {
					errs <- fmt.Errorf("rf2 %s: %w", table, err)
					return
				}
			}
			// Force a full-rewrite propagation on a partition while
			// readers are live (deletes make the PDT non-tail-only).
			if err := e.PropagatePartition(context.Background(), "orders", int(round)%6); err != nil {
				errs <- fmt.Errorf("propagate: %w", err)
				return
			}
		}
	}()

	<-writerDone
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Sanity: the engine is still consistent — a full scan agrees with the
	// catalog row count.
	for _, table := range []string{"orders", "lineitem"} {
		want, err := e.TableRows(table)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := queryRows(e, plan.Aggregate(plan.Scan(table), nil, plan.A("n", plan.CountStar, plan.Int(1))))
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0][0].(int64); got != want {
			t.Fatalf("%s: scan count %d vs catalog %d", table, got, want)
		}
	}
}

// TestQueryContextCancelStopsWorkers cancels a query mid-flight at the
// engine level and verifies (a) the error is a cancellation, (b) the
// spawned exchange/scan goroutines exit.
func TestQueryContextCancelStopsWorkers(t *testing.T) {
	e, _ := stressEngine(t)
	p, err := tpch.BuildQuery(9, e)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, then baseline.
	if _, err := queryRows(e, p); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	sawCancel := false
	for i := 0; i < 20 && !sawCancel; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(1+i%5) * time.Millisecond)
			cancel()
		}()
		_, err := e.Run(ctx, p, core.QueryOptions{}, nil)
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "cancel") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Skip("query always completed before cancellation on this machine")
	}
	waitGoroutines(t, baseline)
	// And the engine still answers correctly.
	if _, err := queryRows(e, p); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines fails the test unless the goroutine count settles back to
// baseline: an aborted query must close its root, which tears down every
// exchange producer and DXchg sender underneath it.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d vs baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContract pins Engine.Run, the one query path: a nil yield collects
// into Rows; a non-nil yield receives every row and leaves Rows nil; a yield
// error and a cancelled context both surface as the returned error, with the
// root closed (no exchange goroutine outlives the call).
func TestRunContract(t *testing.T) {
	e, _ := stressEngine(t)
	// A multi-batch result gathered through a DXchgUnion: aborting after
	// the first batch leaves senders in flight that Close must stop.
	p := plan.Scan("lineitem", "l_orderkey")
	want, err := queryRows(e, p)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	errConsumer := errors.New("consumer gone")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	streamed := 0
	cases := []struct {
		name     string
		ctx      context.Context
		yield    func(rows [][]any) error
		wantErr  error
		wantRows int // len(res.Rows)
		wantSeen int // rows delivered to yield
	}{
		{"nil yield collects", context.Background(), nil, nil, len(want), 0},
		{"yield streams and Rows stays nil", context.Background(),
			func(rows [][]any) error { streamed += len(rows); return nil }, nil, 0, len(want)},
		{"yield error surfaces", context.Background(),
			func([][]any) error { return errConsumer }, errConsumer, 0, 0},
		{"cancelled context surfaces", cancelled, nil, context.Canceled, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streamed = 0
			res, err := e.Run(tc.ctx, p, core.QueryOptions{}, tc.yield)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil {
				if res != nil {
					t.Errorf("failed run returned a result: %+v", res)
				}
				waitGoroutines(t, baseline)
				return
			}
			if len(res.Rows) != tc.wantRows || (tc.yield != nil && res.Rows != nil) {
				t.Errorf("len(Rows) = %d (nil=%v), want %d", len(res.Rows), res.Rows == nil, tc.wantRows)
			}
			if streamed != tc.wantSeen {
				t.Errorf("yield saw %d rows, want %d", streamed, tc.wantSeen)
			}
		})
	}
}

// TestQueryDeadline: an already-expired deadline fails fast, before any
// operator work.
func TestQueryDeadline(t *testing.T) {
	e, _ := stressEngine(t)
	p, err := tpch.BuildQuery(6, e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Run(ctx, p, core.QueryOptions{}, nil); err == nil {
		t.Fatal("expired deadline did not fail the query")
	}
}
