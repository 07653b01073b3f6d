package vectorh_test

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"vectorh/internal/core"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
)

// partScanEst matches a partitioned scan's estimate and actual rows in an
// EXPLAIN ANALYZE line. Replicated scans are left out: their actual rows sum
// every node's copy.
var partScanEst = regexp.MustCompile(`MScan\[\w+\] \(partitioned\).* ~(\d+) rows \(actual rows=(\d+) `)

// joinEst matches a join's estimate and actual rows. Joins are logged, not
// held to a bound: a join above a replicated probe counts every node's copy.
var joinEst = regexp.MustCompile(`(?:Hash|Merge)Join\[[^\]]*\] ~(\d+) rows \(actual rows=(\d+) `)

// hashJoinBuilt matches a hash join's kind, streams, the rows and distinct
// tables it built, and whether their keys were unique.
var hashJoinBuilt = regexp.MustCompile(`HashJoin\[(\w+),([\w-]+)\].* streams=(\d+) built=(\d+) rows in (\d+) tables( unique)?\)`)

// joinHeavy are the statements of bench's join_heavy workload. Every one of
// their joins is N:1: each hash join's build keys are unique.
var joinHeavy = []int{3, 5, 7, 8, 9, 10, 18, 21}

// maxScanQError90 bounds the 90th-percentile q-error — max(est/actual,
// actual/est) — of the partitioned scans' estimates over the 22 queries.
// Estimating a filter as 1/3 per conjunct over a cached row count read 27.7
// here; the MinMax-range selectivity over the live row count reads 3.0.
const maxScanQError90 = 5

// TestExplainAnalyzeAllTPCH runs every TPC-H SQL query under
// QueryProfileSQL and asserts the EXPLAIN ANALYZE actuals are sane: the root
// operator's measured row count equals the result row count, every operator
// reports consistent batch/peak/time figures, at least one scan operator
// attributes IO, the compile/execute phase spans are present, and the
// partitioned scans' ~N estimates track their actual rows.
func TestExplainAnalyzeAllTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H")
	}
	db, _ := openTPCH(t, 0.01)

	var qerrs, joinQerrs []float64
	qerr := func(m []string) float64 {
		est, _ := strconv.ParseFloat(m[1], 64)
		act, _ := strconv.ParseFloat(m[2], 64)
		est, act = max(est, 1), max(act, 1)
		return max(est/act, act/est)
	}
	defer func() {
		if len(qerrs) == 0 || len(joinQerrs) == 0 {
			t.Fatal("no partitioned scan or join with an estimate and actuals")
		}
		slices.Sort(qerrs)
		slices.Sort(joinQerrs)
		n, j := len(qerrs), len(joinQerrs)
		p90 := qerrs[(n*9+9)/10-1]
		t.Logf("partitioned scan q-error over %d scans: median %.2f, p90 %.2f, max %.2f", n, qerrs[n/2], p90, qerrs[n-1])
		t.Logf("join q-error over %d joins: median %.2f, p90 %.2f, max %.2f", j, joinQerrs[j/2], joinQerrs[(j*9+9)/10-1], joinQerrs[j-1])
		if p90 > maxScanQError90 {
			t.Errorf("p90 q-error = %.2f, want <= %d (all: %.2f)", p90, maxScanQError90, qerrs)
		}
	}()
	for q := 1; q <= 22; q++ {
		sqlText, ok := tpch.SQLQueries[q]
		if !ok {
			t.Fatalf("Q%d missing from tpch.SQLQueries", q)
		}
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			p, err := db.QueryProfileSQL(context.Background(), sqlText)
			if err != nil {
				t.Fatal(err)
			}
			if p.Analyzed == "" {
				t.Fatal("no analyzed plan")
			}
			if !strings.Contains(p.Analyzed, "actual rows=") {
				t.Errorf("analyzed plan lacks actuals:\n%s", p.Analyzed)
			}
			if !strings.Contains(p.Analyzed, "~") {
				t.Errorf("analyzed plan lacks cardinality estimates:\n%s", p.Analyzed)
			}
			for _, m := range partScanEst.FindAllStringSubmatch(p.Analyzed, -1) {
				qerrs = append(qerrs, qerr(m))
			}
			for _, m := range joinEst.FindAllStringSubmatch(p.Analyzed, -1) {
				joinQerrs = append(joinQerrs, qerr(m))
			}
			// Every hash join reports its tables: a replicated build one per
			// node, which the node's probe streams share, a paired join one
			// per stream.
			built := hashJoinBuilt.FindAllStringSubmatch(p.Analyzed, -1)
			if n := strings.Count(p.Analyzed, "HashJoin["); len(built) != n {
				t.Errorf("%d of %d hash joins report their tables:\n%s", len(built), n, p.Analyzed)
			}
			leftJoins := 0
			for _, m := range built {
				want := m[3]
				if m[2] == "replicated-build" {
					want = "3"
				}
				if m[5] != want {
					t.Errorf("%s join over %s streams built %s tables, want %s", m[2], m[3], m[5], want)
				}
				// A build with unique keys says so: each of join_heavy's,
				// and not Q13's LEFT JOIN on o_custkey, which repeats.
				unique := m[6] != ""
				if slices.Contains(joinHeavy, q) && !unique {
					t.Errorf("%s: a join_heavy hash join over non-unique build keys", m[0])
				}
				if q == 13 && m[1] == "1" {
					leftJoins++
					if unique {
						t.Errorf("%s: Q13's LEFT JOIN prints unique over repeated o_custkey", m[0])
					}
				}
			}
			if q == 13 && leftJoins != 1 {
				t.Errorf("%d hash left joins in Q13, want 1", leftJoins)
			}
			// Q09's four replicated builds each run 6 probe streams (3 nodes
			// × 2 threads) over 3 tables with rows; a table per probe
			// stream would be 6.
			if q == 9 {
				if len(built) != 4 {
					t.Errorf("%d hash joins report their tables, want Q09's 4", len(built))
				}
				for _, m := range built {
					if m[2] != "replicated-build" || m[3] != "6" || m[4] == "0" {
						t.Errorf("%s join over %s streams built %s rows, want a replicated build over 6 streams with rows", m[2], m[3], m[4])
					}
				}
			}
			if len(p.Operators) == 0 {
				t.Fatal("no operator profiles")
			}

			// The heaviest-first flat list and the tree agree on the root:
			// find the root's aggregate via the first line of the tree.
			var rootRows, rootBatches int64
			var haveScanIO bool
			for _, op := range p.Operators {
				if op.Rows < 0 || op.Batches < 0 || op.Nanos < 0 {
					t.Errorf("operator %s has negative figures: %+v", op.Label, op)
				}
				if op.Rows > 0 && op.Batches == 0 {
					t.Errorf("operator %s produced %d rows in 0 batches", op.Label, op.Rows)
				}
				if op.PeakBatch > 0 && op.Rows > 0 && op.PeakBatch > op.Rows {
					t.Errorf("operator %s peak batch %d exceeds total rows %d", op.Label, op.PeakBatch, op.Rows)
				}
				if op.BlocksRead > 0 || op.BytesDecoded > 0 || op.CacheHits > 0 {
					haveScanIO = true
				}
				if strings.HasPrefix(strings.TrimSpace(p.Analyzed), op.Label) {
					rootRows, rootBatches = op.Rows, op.Batches
				}
			}
			if rootRows != int64(len(p.Rows)) {
				t.Errorf("root actual rows=%d but result has %d rows", rootRows, len(p.Rows))
			}
			if len(p.Rows) > 0 && rootBatches == 0 {
				t.Errorf("root produced %d rows but 0 batches", len(p.Rows))
			}
			if !haveScanIO {
				t.Error("no scan operator attributed any IO")
			}
			if p.Scan.BlocksRead == 0 && p.Scan.BytesDecoded == 0 && p.Scan.CacheHits == 0 {
				t.Error("per-query scan IO totals are empty")
			}

			// Phase spans: a cold compile records parse through joinorder;
			// execute is always present and bounded by the elapsed time.
			phases := map[string]time.Duration{}
			for _, ph := range p.Phases {
				phases[ph.Name] = ph.Nanos
			}
			if _, ok := phases["execute"]; !ok {
				t.Errorf("missing execute phase: %v", p.Phases)
			}
			if !p.CacheHit {
				for _, want := range []string{"parse", "bind", "joinorder", "rewrite"} {
					if _, ok := phases[want]; !ok {
						t.Errorf("cold compile missing %q phase: %v", want, p.Phases)
					}
				}
			}
			if phases["execute"] > p.Elapsed+time.Second {
				t.Errorf("execute span %v exceeds elapsed %v", phases["execute"], p.Elapsed)
			}

			// The profiled run returns the same rows as the plain run.
			plain, err := db.QuerySQL(sqlText)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != len(p.Rows) {
				t.Errorf("profiled run returned %d rows, plain run %d", len(p.Rows), len(plain))
			}
		})
	}
}

// TestProfileOffNoWrappers asserts the structural zero-overhead property:
// without Profile, the result carries no profiling artifacts at all (no
// wrapper is inserted, so the off path has nothing to pay per batch).
func TestProfileOffNoWrappers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H")
	}
	db, _ := openTPCH(t, 0.005)
	n, err := sql.Compile(tpch.SQLQueries[6], db.Engine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(context.Background(), n, core.QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyzed != "" || res.Operators != nil {
		t.Errorf("unprofiled run carries profiling artifacts: %+v", res)
	}
	p, err := db.QueryProfileSQL(context.Background(), tpch.SQLQueries[6])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(p.Rows) {
		t.Errorf("profiled %d rows vs plain %d rows", len(p.Rows), len(res.Rows))
	}
}

// TestQueryProfileCacheHit pins the plan-cache flag: the second profiled run
// of the same statement reports a hit and carries no compile phases.
func TestQueryProfileCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H")
	}
	db, _ := openTPCH(t, 0.005)
	ctx := context.Background()
	first, err := db.QueryProfileSQL(ctx, tpch.SQLQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first run should be a cache miss")
	}
	second, err := db.QueryProfileSQL(ctx, tpch.SQLQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second run should be a cache hit")
	}
	for _, ph := range second.Phases {
		if ph.Name == "parse" || ph.Name == "bind" {
			t.Errorf("cache hit still recorded compile phase %q", ph.Name)
		}
	}
	if got := second.Render(); !strings.Contains(got, "plan cache hit") || !strings.Contains(got, "Scan IO:") {
		t.Errorf("Render missing sections:\n%s", got)
	}
}
