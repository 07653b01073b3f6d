package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/tpch"
)

// The shared fixture: one SF 0.01 TPC-H database for the whole package
// (loading dominates test time; the server is stateless over it except for
// the DML test, which nets to zero).
var (
	fixtureOnce sync.Once
	fixtureDB   *vectorh.DB
	fixtureErr  error
)

func testDB(t *testing.T) *vectorh.DB {
	t.Helper()
	fixtureOnce.Do(func() {
		db, err := vectorh.Open(vectorh.Config{
			Nodes:          []string{"node1", "node2", "node3"},
			ThreadsPerNode: 2,
			BlockSize:      1 << 18,
			Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
			MsgBytes:       16 << 10,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		d := tpch.Generate(0.01, 42)
		if err := tpch.LoadIntoEngine(db.Engine, d, 6); err != nil {
			fixtureErr = err
			return
		}
		fixtureDB = db
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDB
}

func startServer(t *testing.T, opt Options) (*Server, string) {
	t.Helper()
	srv := New(testDB(t), opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sqlQueryNumbers() []int {
	var qs []int
	for q := range tpch.SQLQueries {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	return qs
}

// normalizeRows renders rows with floats rounded: float aggregation order
// across exchange threads is nondeterministic, so two correct executions
// may differ in the last bits. Row ORDER is preserved — ORDER BY results
// must match positionally.
func normalizeRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&sb, "%.6g|", f)
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out[i] = sb.String()
	}
	return out
}

// TestSixteenSessionsRowIdentical is the acceptance gate: 16 concurrent
// sessions each run all SQL TPC-H queries and every result must be
// row-identical to single-session in-process execution. The sessions share
// one plan cache: of the 17 × 22 compiles of 22 texts (reference run
// included) at least 90 % must hit it.
func TestSixteenSessionsRowIdentical(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, Options{MaxConcurrent: 8})

	pc0 := db.PlanCacheStats()
	qs := sqlQueryNumbers()
	want := make(map[int][]string, len(qs))
	for _, q := range qs {
		rows, err := db.QuerySQL(tpch.SQLQueries[q])
		if err != nil {
			t.Fatalf("Q%02d reference: %v", q, err)
		}
		want[q] = normalizeRows(rows)
	}

	const sessions = 16
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for _, q := range qs {
				res, err := c.Query(context.Background(), tpch.SQLQueries[q])
				if err != nil {
					errs <- fmt.Errorf("session %d Q%02d: %w", s, q, err)
					return
				}
				if got := normalizeRows(res.Rows); !reflect.DeepEqual(got, want[q]) {
					errs <- fmt.Errorf("session %d Q%02d: rows diverge from in-process execution", s, q)
					return
				}
			}
			errs <- nil
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	pc := db.PlanCacheStats()
	hits, misses := pc.Hits-pc0.Hits, pc.Misses-pc0.Misses
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("plan cache hit rate %.1f%% (%d hits, %d misses), want >= 90%%", 100*rate, hits, misses)
	}
}

// TestAdmissionControlCapsInflight floods a MaxConcurrent=2 server and
// samples the active-query gauge: it must never exceed the limit, queries
// must queue, and all must eventually complete.
func TestAdmissionControlCapsInflight(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})

	stop := make(chan struct{})
	var peakActive, peakQueued int64
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Stats()
			if st.ActiveQueries > peakActive {
				peakActive = st.ActiveQueries
			}
			if st.QueuedQueries > peakQueued {
				peakQueued = st.QueuedQueries
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const n = 10
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query(context.Background(), tpch.SQLQueries[9])
			errs <- err
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if peakActive > 2 {
		t.Fatalf("admission control breached: %d queries executing concurrently (limit 2)", peakActive)
	}
	if peakQueued == 0 {
		t.Fatal("expected excess queries to queue, sampler never saw a queued query")
	}
	st := srv.Stats()
	if st.CompletedQueries != n {
		t.Fatalf("completed = %d, want %d", st.CompletedQueries, n)
	}
	if st.RejectedQueries != 0 {
		t.Fatalf("rejected = %d, want 0", st.RejectedQueries)
	}
}

// TestAdmissionQueueTimeout: with a 1-slot server and a near-zero queue
// wait, simultaneous queries must be rejected with "server busy" — and the
// rejection must leave the server healthy.
func TestAdmissionQueueTimeout(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConcurrent: 1, QueueWait: time.Millisecond})
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query(context.Background(), tpch.SQLQueries[9])
			errs <- err
		}()
	}
	wg.Wait()
	busy := 0
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			if !strings.Contains(err.Error(), "server busy") {
				t.Fatalf("unexpected error: %v", err)
			}
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("expected at least one 'server busy' rejection")
	}
	if st := srv.Stats(); st.RejectedQueries != int64(busy) {
		t.Fatalf("rejected metric = %d, want %d", st.RejectedQueries, busy)
	}
	// The server must remain usable after rejections.
	c := dial(t, addr)
	if _, err := c.Query(context.Background(), tpch.SQLQueries[6]); err != nil {
		t.Fatalf("post-rejection query: %v", err)
	}
}

// TestCancelMidQuery cancels an in-flight query via the client context
// (which sends a wire-level cancel), asserts the query terminates with a
// cancellation error, the worker goroutines exit (no leak), and the server
// keeps serving.
func TestCancelMidQuery(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConcurrent: 4})
	c := dial(t, addr)

	// Warm up (decoded-block caches, goroutine pools) and take a baseline.
	if _, err := c.Query(context.Background(), tpch.SQLQueries[9]); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, 2*time.Second)
	baseline := runtime.NumGoroutine()

	cancelled := 0
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(3 * time.Millisecond) // mid-scan for the ~30ms Q9
			cancel()
		}()
		_, err := c.Query(ctx, tpch.SQLQueries[9])
		cancel()
		if err == nil {
			continue // the query won the race; try again
		}
		if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "cancel") {
			t.Fatalf("unexpected error: %v", err)
		}
		cancelled++
	}
	if cancelled == 0 {
		t.Fatal("no attempt was cancelled mid-flight")
	}
	// The client can observe its context fire while the server-side race
	// resolves as completion, so the metric may lag the client's count —
	// but at least one server-side cancellation must have registered.
	if got := srv.Stats().CancelledQueries; got < 1 {
		t.Fatalf("cancelled metric = %d, want >= 1", got)
	}

	// Worker goroutines (scans, exchange producers, DXchg senders) must
	// exit: goroutine count returns to the post-warmup baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after cancel: %d vs baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Server stays healthy: a fresh query returns correct results.
	res, err := c.Query(context.Background(), tpch.SQLQueries[6])
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("post-cancel query: rows=%v err=%v", res, err)
	}
}

// waitSettled waits for transient goroutines of prior queries to exit.
func waitSettled(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	last := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == last {
			return
		}
		last = cur
	}
}

// TestDeadlineMidQuery: a server-side deadline (timeout_ms) cancels the
// query without any client action.
func TestDeadlineMidQuery(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 4})
	c := dial(t, addr)
	hit := false
	for i := 0; i < 10 && !hit; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := c.Query(ctx, tpch.SQLQueries[9])
		cancel()
		if err != nil {
			hit = true
			low := strings.ToLower(err.Error())
			if !strings.Contains(low, "deadline") && !strings.Contains(low, "cancel") {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	if !hit {
		t.Fatal("2ms deadline never fired on a ~30ms query")
	}
}

// TestErrorCarriesPosition: compile errors reach the client as structured
// line:col errors.
func TestErrorCarriesPosition(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	_, err := c.Query(context.Background(), "select\n  nosuch_column\nfrom region")
	if err == nil {
		t.Fatal("want error")
	}
	var werr *WireError
	if !errors.As(err, &werr) {
		t.Fatalf("error is %T, want *WireError", err)
	}
	if werr.Line != 2 || werr.Col == 0 {
		t.Fatalf("position = %d:%d, want line 2", werr.Line, werr.Col)
	}
}

// TestSubstringOutOfRangeIsAnErrorNotACrash: SUBSTRING(x FROM 0 ...) used to
// slice out of bounds on an exchange sender goroutine, which nothing recovers
// — one statement killed the process. It is now a positioned bind error, the
// connection stays usable, and a length near MaxInt64 (which overflowed the
// same bounds arithmetic) just reads to the end of the string.
func TestSubstringOutOfRangeIsAnErrorNotACrash(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	_, err := c.Query(context.Background(), "select substring(c_phone from 0 for 2) from customer")
	var werr *WireError
	if !errors.As(err, &werr) || werr.Line != 1 || werr.Col != 8 || !strings.Contains(err.Error(), "SUBSTRING start must be at least 1") {
		t.Fatalf("err = %v, want a positioned error frame", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the error: %v", err)
	}
	res, err := c.Query(context.Background(),
		"select c_phone, substring(c_phone from 2 for 9223372036854775807) as rest from customer where c_custkey = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1] != res.Rows[0][0].(string)[1:] {
		t.Fatalf("rows = %v, err = %v", res, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the long substring: %v", err)
	}
}

// TestExecOverWire runs DML through a session (insert, verify, delete).
func TestExecOverWire(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	n, err := c.Exec(context.Background(),
		"insert into region (r_regionkey, r_name, r_comment) values (77, 'ATLANTIS', 'sunk')")
	if err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	res, err := c.Query(context.Background(), "select r_name from region where r_regionkey = 77")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "ATLANTIS" {
		t.Fatalf("select: rows=%v err=%v", res, err)
	}
	n, err = c.Exec(context.Background(), "delete from region where r_regionkey = 77")
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
}

// TestPingStatsExplain covers the control ops.
func TestPingStatsExplain(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 3})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), tpch.SQLQueries[6]); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxConcurrent != 3 || st.CompletedQueries < 1 || st.Sessions < 1 {
		t.Fatalf("stats = %+v", st)
	}
	plan, err := c.Explain(tpch.SQLQueries[6])
	if err != nil || !strings.Contains(plan, "MScan") {
		t.Fatalf("explain: %q err=%v", plan, err)
	}
}

// TestServerRejectsOversizedFrame: a malicious header must not commit the
// server to a giant allocation; the connection is dropped.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startServer(t, Options{MaxFrameBytes: 1 << 16})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection survived an oversized frame header")
	}
}

// TestGracefulClose: Close cancels in-flight queries and returns with no
// server goroutine left.
func TestGracefulClose(t *testing.T) {
	srv := New(testDB(t), Options{MaxConcurrent: 4})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	launched := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(launched)
		_, err := c.Query(context.Background(), tpch.SQLQueries[9])
		done <- err
	}()
	<-launched
	time.Sleep(2 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done: // cancelled or completed; either way the client unblocked
	case <-time.After(5 * time.Second):
		t.Fatal("client query still blocked after server Close")
	}
}
