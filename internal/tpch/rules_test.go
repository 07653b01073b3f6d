package tpch

import (
	"context"
	"fmt"
	"testing"

	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
)

// TestNoRuleSwitchSilentlyIgnored pins the one spelling of the rule
// switches: the zero QueryOptions run exactly the plan of
// rewriter.DefaultOptions, which is every rule on, and each Rules bit alone
// visibly changes the execution of at least one TPC-H query — the physical
// plan for the four rewrite rules, the bytes materialized by the scans for
// CompressedExec (which leaves the plan text alone).
func TestNoRuleSwitchSilentlyIgnored(t *testing.T) {
	eng := newEngine(t)
	if err := LoadIntoEngine(eng, Generate(0.01, 9), 6); err != nil {
		t.Fatal(err)
	}
	defaults := rewriter.DefaultOptions(len(eng.Nodes()), 2)
	if defaults.Disable != 0 {
		t.Fatalf("DefaultOptions disables %05b; the zero value must be every rule on", defaults.Disable)
	}

	explain := func(r *core.QueryResult) string { return r.Explain }
	materialized := func(r *core.QueryResult) string { return fmt.Sprint(r.Scan.BytesMaterialized) }
	cases := []struct {
		name  string
		rule  rewriter.Rules
		query int
		view  func(*core.QueryResult) string
	}{
		{"LocalJoin", rewriter.LocalJoin, 12, explain},
		{"ReplicateBuild", rewriter.ReplicateBuild, 5, explain},
		{"PartialAgg", rewriter.PartialAgg, 1, explain},
		{"ScanPushdown", rewriter.ScanPushdown, 6, explain},
		{"CompressedExec", rewriter.CompressedExec, 12, materialized},
	}
	ctx := context.Background()
	var all rewriter.Rules
	for _, tc := range cases {
		if all&tc.rule != 0 {
			t.Fatalf("%s shares a bit with an earlier rule", tc.name)
		}
		all |= tc.rule
		t.Run(tc.name, func(t *testing.T) {
			p, err := sql.Compile(SQLQueries[tc.query], eng)
			if err != nil {
				t.Fatal(err)
			}
			on, err := eng.Run(ctx, p, core.QueryOptions{Profile: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			phys, err := rewriter.Rewrite(p, eng, defaults)
			if err != nil {
				t.Fatal(err)
			}
			if want := rewriter.Explain(phys); on.Explain != want {
				t.Errorf("QueryOptions{} ran a different plan than DefaultOptions:\n%s\nvs\n%s", on.Explain, want)
			}
			off, err := eng.Run(ctx, p, core.QueryOptions{Disable: tc.rule, Profile: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.view(on) == tc.view(off) {
				t.Errorf("disabling %s changed nothing on Q%02d:\n%s", tc.name, tc.query, tc.view(off))
			}
			// Row values are the parity gates' business (float sums move in
			// the last digits with the aggregation order); the shape is ours.
			if len(on.Rows) != len(off.Rows) {
				t.Errorf("disabling %s changed Q%02d from %d to %d rows", tc.name, tc.query, len(on.Rows), len(off.Rows))
			}
		})
	}
}
