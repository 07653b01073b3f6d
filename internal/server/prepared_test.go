package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"vectorh/internal/sql"
)

// TestWirePrepareExecute prepares parameterized TPC-H-shaped statements over
// the wire, executes them with positional parameters, and checks the results
// against in-process execution of the literal statements. It also verifies
// that repeated executes are served from the shared plan cache.
func TestWirePrepareExecute(t *testing.T) {
	db := testDB(t)
	srv, addr := startServer(t, Options{MaxConcurrent: 4})
	c := dial(t, addr)

	ps, err := c.Prepare("select count(*) from lineitem where l_quantity < ?")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", ps.NumParams())
	}
	want, err := db.QuerySQL("select count(*) from lineitem where l_quantity < 24")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ps.Query(context.Background(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := normalizeRows(r.Rows), normalizeRows(want); !eqStringSlices(got, w) {
		t.Fatalf("prepared result %v, want %v", got, w)
	}

	// A DATE ? template ('?' in a literal-only position: accepted at prepare,
	// syntax-checked at first execute).
	dps, err := c.Prepare(`select count(*) from lineitem
		where l_shipdate >= date ? and l_shipdate < date ?`)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := db.QuerySQL(`select count(*) from lineitem
		where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'`)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dps.Query(context.Background(), "1994-01-01", "1995-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if got, w := normalizeRows(rd.Rows), normalizeRows(wantD); !eqStringSlices(got, w) {
		t.Fatalf("date-template result %v, want %v", got, w)
	}

	// Repeated executes with the same parameters are plan-cache hits.
	hits := func() float64 {
		text, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(t, text, "vectorh_plan_cache_hits_total")
	}
	h0 := hits()
	for i := 0; i < 5; i++ {
		if _, err := ps.Query(context.Background(), 24); err != nil {
			t.Fatal(err)
		}
	}
	if h1 := hits(); h1 < h0+5 {
		t.Fatalf("plan cache hits %v -> %v, want +5", h0, h1)
	}
	if n := srv.Stats().OpenStatements; n < 2 {
		t.Fatalf("open statements = %d, want >= 2", n)
	}

	// Arity mismatch is a per-request error, not a dead session.
	if _, err := ps.Query(context.Background()); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := ps.Query(context.Background(), 24); err != nil {
		t.Fatalf("session unusable after arity error: %v", err)
	}

	// Closing a statement invalidates its handle.
	if err := dps.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dps.Query(context.Background(), "1994-01-01", "1995-01-01"); err == nil ||
		!strings.Contains(err.Error(), "unknown statement") {
		t.Fatalf("execute after close-stmt: %v", err)
	}

	// A bad template with '?' markers defers its syntax error to the first
	// execute; one without markers fails at prepare.
	bad, err := c.Prepare("select count(*) from from lineitem where l_quantity < ?")
	if err != nil {
		t.Fatalf("parameterized template should defer parse: %v", err)
	}
	if _, err := bad.Query(context.Background(), 1); err == nil {
		t.Fatal("bad template must fail at execute")
	}
	if _, err := c.Prepare("select count(*) from from lineitem"); err == nil {
		t.Fatal("param-free bad template must fail at prepare")
	}
}

// TestWirePreparedExponentNumbers: the client encodes 1e-7 and 1e21 in
// exponent form ("1e-07", "1e+21"), which the lexer has no form for. Over
// the wire they must bind to the text they bind to in process and return
// the same rows.
func TestWirePreparedExponentNumbers(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, Options{})
	c := dial(t, addr)
	for _, tc := range []struct {
		tmpl  string
		param float64
	}{
		{"select count(*) as n from lineitem where l_discount > ?", 1e-7},
		{"select count(*) as n from lineitem where l_orderkey < ?", 1e21},
	} {
		p, err := sql.Prepare(tc.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := p.Bind([]any{tc.param})
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QuerySQL(bound)
		if err != nil {
			t.Fatalf("in process %q: %v", bound, err)
		}
		ps, err := c.Prepare(tc.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.Query(context.Background(), tc.param)
		if err != nil {
			t.Fatalf("%s with %g: %v", tc.tmpl, tc.param, err)
		}
		if g, w := normalizeRows(got.Rows), normalizeRows(want); !eqStringSlices(g, w) {
			t.Fatalf("%s with %g: rows %v, in process %v", tc.tmpl, tc.param, g, w)
		}
	}
}

// TestWirePreparedDML runs prepared INSERT and DELETE against the shared
// fixture, netting the row count back to zero.
func TestWirePreparedDML(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, Options{MaxConcurrent: 4})
	c := dial(t, addr)

	count := func() int64 {
		rows, err := db.QuerySQL("select count(*) from region")
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].(int64)
	}
	before := count()

	ins, err := c.Prepare("insert into region (r_regionkey, r_name, r_comment) values (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("insert NumParams = %d", ins.NumParams())
	}
	n, err := ins.Exec(context.Background(), 99, "ATLANTIS", "prepared-dml test row")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("insert affected %d rows, want 1", n)
	}
	if got := count(); got != before+1 {
		t.Fatalf("region count %d after insert, want %d", got, before+1)
	}

	del, err := c.Prepare("delete from region where r_regionkey = ?")
	if err != nil {
		t.Fatal(err)
	}
	n, err = del.Exec(context.Background(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delete affected %d rows, want 1", n)
	}
	if got := count(); got != before {
		t.Fatalf("region count %d after delete, want %d", got, before)
	}
}

// TestClientCloseRace is the regression test for the close race: a cancel (or
// any) frame issued after Close must return a clean error, never panic on the
// closed connection, including when Close lands mid-query.
func TestClientCloseRace(t *testing.T) {
	_, addr := startServer(t, Options{MaxConcurrent: 4})

	// Requests after Close fail cleanly; Close is idempotent.
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("Ping after Close must error")
	}
	if _, err := c.Query(context.Background(), "select count(*) from region"); err == nil {
		t.Fatal("Query after Close must error")
	}
	if _, err := c.Prepare("select count(*) from region"); err == nil {
		t.Fatal("Prepare after Close must error")
	}

	// Close racing a context cancellation: the canceled query's cancel frame
	// may be written after Close wins the race. Run several rounds; under
	// -race this also exercises the connection teardown paths.
	for round := 0; round < 8; round++ {
		c := dial(t, addr)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Error (canceled or connection closed) is expected; a panic is
			// the regression.
			_, _ = c.Query(ctx, "select count(*) from lineitem, orders where l_orderkey = o_orderkey")
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel()
			_ = c.Close()
		}()
		wg.Wait()
	}
}

func eqStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
