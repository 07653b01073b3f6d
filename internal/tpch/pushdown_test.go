package tpch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
)

// TestPushdownParityTPCH is the acceptance gate of the late-materialized
// scan path: every TPC-H query with SQL text must return rows identical to
// the pre-refactor Select-above-scan pipeline (scan pushdown disabled), on
// clean storage and again after the RF1/RF2 refresh streams have pushed
// tail inserts and deletes through the PDT layers and forced update
// propagation — so predicate re-checks on PDT-merged rows and tail inserts
// are covered, not just clean block scans.
func TestPushdownParityTPCH(t *testing.T) {
	const sf = 0.01
	d := Generate(sf, 9)
	names := []string{"n1", "n2", "n3"}
	eng, err := core.New(core.Config{
		Nodes:          names,
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
		// Low flush threshold: the refresh volume crosses it, so the
		// post-refresh phase sees propagated blocks, not just PDT merges.
		PDTFlushBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadIntoEngine(eng, d, 6); err != nil {
		t.Fatal(err)
	}

	var qs []int
	for q := range SQLQueries {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	type stmt struct{ name, text string }
	var stmts []stmt
	for _, q := range qs {
		stmts = append(stmts, stmt{fmt.Sprintf("Q%02d", q), SQLQueries[q]})
	}
	// A Q6-shaped scan swept across l_shipdate selectivities, 7 years down
	// to 1 week; the last window lies past the data, so every block is
	// skipped and the global aggregate runs over zero spans.
	for _, w := range [][2]string{
		{"1992-01-01", "1999-01-01"},
		{"1993-01-01", "1996-01-01"},
		{"1994-01-01", "1995-01-01"},
		{"1994-03-01", "1994-04-01"},
		{"1994-03-01", "1994-03-08"},
		{"2020-01-01", "2021-01-01"},
	} {
		stmts = append(stmts, stmt{"shipdate " + w[0] + ".." + w[1], fmt.Sprintf(
			`select sum(l_extendedprice * l_discount) as revenue, count(*) as n
			from lineitem
			where l_shipdate >= date '%s' and l_shipdate < date '%s'
			  and l_discount between 0.02 and 0.09 and l_quantity < 45`, w[0], w[1])})
	}

	compareAll := func(phase string) {
		t.Helper()
		for _, st := range stmts {
			p, err := sql.Compile(st.text, eng)
			if err != nil {
				t.Fatalf("%s %s compile: %v", phase, st.name, err)
			}
			rOn, err := eng.Run(context.Background(), p, core.QueryOptions{}, nil)
			if err != nil {
				t.Fatalf("%s %s pushdown: %v", phase, st.name, err)
			}
			rOff, err := eng.Run(context.Background(), p, core.QueryOptions{Disable: rewriter.ScanPushdown}, nil)
			if err != nil {
				t.Fatalf("%s %s select-above-scan: %v", phase, st.name, err)
			}
			if !rowsIdentical(rOn.Rows, rOff.Rows) {
				t.Fatalf("%s %s diverged: pushdown %d rows vs select-above-scan %d rows",
					phase, st.name, len(rOn.Rows), len(rOff.Rows))
			}
		}
	}

	compareAll("clean")

	// RF1 (trickle inserts) + RF2 (deletes) as SQL DML, as in §8.
	count := int(1500 * sf)
	if count < 5 {
		count = 5
	}
	for _, s := range RF1SQL(d, count, 21) {
		if _, err := sql.Exec(context.Background(), s, eng); err != nil {
			t.Fatalf("RF1: %v", err)
		}
	}
	for _, s := range RF2SQL(RF2Keys(d, count, 22)) {
		if _, err := sql.Exec(context.Background(), s, eng); err != nil {
			t.Fatalf("RF2: %v", err)
		}
	}
	propagated := 0
	for _, table := range []string{"orders", "lineitem"} {
		for p := 0; p < 6; p++ {
			if m := eng.PartitionMetaForTest(table, p); m != nil && m.Gen > 0 {
				propagated++
			}
		}
	}
	if propagated == 0 {
		t.Fatal("refresh did not trigger update propagation; the post-refresh phase would not cover rewritten blocks")
	}

	compareAll("post-refresh")
}

// rowsIdentical compares result multisets. Non-float values compare
// exactly. Float aggregates are rounded to 6 decimals first: parallel
// aggregation sums partials in exchange-arrival order, which is
// nondeterministic run to run (independently of scan pushdown — the same
// plan executed twice can differ in the last ulp), so bitwise comparison
// of float sums would be flaky for any two runs.
func rowsIdentical(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	na, nb := normalizePushdownRows(a), normalizePushdownRows(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

func normalizePushdownRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			switch x := v.(type) {
			case float64:
				fmt.Fprintf(&sb, "%.6f|", math.Round(x*1e6)/1e6)
			default:
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}
