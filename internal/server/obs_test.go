package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorh/internal/obs"
)

// TestDoneFrameCarriesQueueExecSplit pins the server-side timing split: a
// query's done frame reports execution time and admission queue wait
// separately, and both surface on the client Result.
func TestDoneFrameCarriesQueueExecSplit(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})
	c := dial(t, addr)
	res, err := c.Query(context.Background(), "select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec <= 0 {
		t.Errorf("done frame carried no exec time: %+v", res)
	}
	if res.Queue < 0 {
		t.Errorf("negative queue wait: %v", res.Queue)
	}
	if res.Elapsed <= 0 {
		t.Errorf("done frame carried no elapsed time: %+v", res)
	}
	if res.Exec > res.Elapsed+res.Queue+time.Second {
		t.Errorf("exec %v inconsistent with elapsed %v + queue %v", res.Exec, res.Elapsed, res.Queue)
	}
}

// TestMetricsOp scrapes the Prometheus exposition over the wire and checks
// the serving-layer and engine metric families are both present.
func TestMetricsOp(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})
	c := dial(t, addr)
	if _, err := c.Query(context.Background(), "select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE vectorh_queries_completed_total counter",
		"# TYPE vectorh_query_exec_seconds histogram",
		"vectorh_query_exec_seconds_count",
		"vectorh_sessions_active",
		"vectorh_scan_blocks_read_total",
		"vectorh_block_cache_hits_total",
		"vectorh_process_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition does not end with a newline")
	}
}

// TestProfileOp runs EXPLAIN ANALYZE over the wire and checks the rendered
// profile carries actuals, phase spans, and scan IO.
func TestProfileOp(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})
	c := dial(t, addr)
	text, err := c.Profile(context.Background(),
		"select count(*) from lineitem where l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual rows=", "Phases:", "execute=", "Scan IO:"} {
		if !strings.Contains(text, want) {
			t.Errorf("profile output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsCarryProcessHealth pins the process-health samples of the
// metrics text: uptime, goroutines, heap, GC cycles and pause, allocation.
func TestMetricsCarryProcessHealth(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})
	c := dial(t, addr)
	runtime.GC() // at least one completed cycle
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name, positive := range map[string]bool{
		"vectorh_process_uptime_seconds":         false,
		"vectorh_process_goroutines":             true,
		"vectorh_process_heap_bytes":             true,
		"vectorh_process_gc_cycles_total":        true,
		"vectorh_process_gc_pause_seconds_total": false,
		"vectorh_process_alloc_bytes_total":      true,
	} {
		if v := metricValue(t, text, name); v < 0 || positive && v == 0 {
			t.Errorf("%s = %v", name, v)
		}
	}
}

// metricValue returns the value of the unlabelled sample name in a
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metrics text has no sample %s", name)
	return 0
}

// syncBuffer is a goroutine-safe io.Writer for capturing slow-log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog runs a query under a zero-distance threshold and checks
// the structured entry: one JSON line with the normalized hash, timing
// split, and per-phase/per-operator breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	srv, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute,
		SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	c := dial(t, addr)
	const q = "select count(*) from lineitem where l_quantity < 24"
	if _, err := c.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// The same statement, reformatted (NormalizeSQL collapses case and
	// whitespace) — before the DML below bumps the catalog epoch and flushes
	// the plan cache.
	if _, err := c.Query(context.Background(),
		"SELECT count(*)\nFROM lineitem\nWHERE l_quantity < 24"); err != nil {
		t.Fatal(err)
	}
	// DML is slow-logged too (no operator breakdown); net to zero rows.
	if _, err := c.Exec(context.Background(),
		"insert into region (r_regionkey, r_name, r_comment) values (78, 'LEMURIA', 'sunk')"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "delete from region where r_regionkey = 78"); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 slow-log lines, got %d:\n%s", len(lines), buf.String())
	}
	var entry obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow-log line is not JSON: %v\n%s", err, lines[0])
	}
	if len(entry.Hash) != 16 {
		t.Errorf("hash %q is not 16 hex digits", entry.Hash)
	}
	if entry.TotalUs <= 0 {
		t.Errorf("total_us = %d", entry.TotalUs)
	}
	if entry.Rows != 1 {
		t.Errorf("rows = %d, want 1", entry.Rows)
	}
	if len(entry.Phases) == 0 {
		t.Error("entry has no phase breakdown")
	}
	if len(entry.TopOps) == 0 || len(entry.TopOps) > 3 {
		t.Errorf("entry has %d top operators, want 1..3", len(entry.TopOps))
	}
	if entry.Time == "" {
		t.Error("entry has no timestamp")
	}

	// The reformatted invocation hashes identically and hits the plan cache.
	var again obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[1]), &again); err != nil {
		t.Fatal(err)
	}
	if again.Hash != entry.Hash {
		t.Errorf("literal-differing invocations hash %q vs %q", again.Hash, entry.Hash)
	}
	if !again.CacheHit {
		t.Error("second invocation of the same shape should be a plan-cache hit")
	}

	if got := srv.Stats().SlowQueries; got != 4 {
		t.Errorf("stats reports %d slow queries, want 4", got)
	}
}

// TestSlowLogOffByDefault checks no slow-logging machinery engages without
// a threshold: queries run the unprofiled path and stats report zero.
func TestSlowLogOffByDefault(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConcurrent: 2, QueueWait: time.Minute})
	c := dial(t, addr)
	if _, err := c.Query(context.Background(), "select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().SlowQueries; got != 0 {
		t.Errorf("slow queries = %d without a threshold", got)
	}
}
