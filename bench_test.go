// Benchmarks regenerating the paper's evaluation artifacts; each testing.B
// target corresponds to one table or figure — EXPERIMENTS.md maps every
// benchmark to its paper artifact and explains which measured shapes are
// expected to match. Run with:
//
//	go test -bench=. -benchmem .
package vectorh_test

import (
	"context"
	"fmt"
	"testing"

	"vectorh"
	"vectorh/internal/baseline"
	"vectorh/internal/experiments"
	"vectorh/internal/tpch"
)

const benchSF = 0.01

// BenchmarkFig1QueryTime regenerates Figure 1 (a+b): hot scan time and data
// read under varying selectivity across formats.
func BenchmarkFig1QueryTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchSF)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkFig2Affinity regenerates Figure 2: min-cost re-replication and
// responsibility reassignment after a node failure.
func BenchmarkFig2Affinity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep)
		}
	}
}

// BenchmarkFig5Ablation regenerates the §5 rewrite-rule ablation (paper:
// 5.02 / 5.64 / 5.67 / 25.51 / 26.14 seconds on their cluster).
func BenchmarkFig5Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Ablation(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.Logf("%-24s %v", r.Name, r.Elapsed)
			}
		}
	}
}

// BenchmarkLoadPaths regenerates the §7 load comparison: vwload remote vs
// tweaked-local vs Spark connector.
func BenchmarkLoadPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadPaths(9, 4000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.Logf("%-24s %v local=%dKB remote=%dKB", r.Name, r.Elapsed, r.LocalBytes/1024, r.RemoteBytes/1024)
			}
		}
	}
}

// BenchmarkLoad measures the real bulk-load path (§7's vwload, not the
// simulation above): create the eight TPC-H tables and Engine.Load them into
// a fresh 3-node × 2-thread, 6-partition engine per iteration. Generation
// stays outside the timer; rows/s and allocations per load are the numbers
// EXPERIMENTS.md records.
func BenchmarkLoad(b *testing.B) {
	d := tpch.Generate(benchSF, 9)
	rows := 0
	for _, t := range d.Tables {
		rows += t.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := experiments.NewEngine(3, 2, 6)
		if err != nil {
			b.Fatal(err)
		}
		if err := tpch.LoadIntoEngine(eng, d, 6); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkTPCH regenerates the Figure 7 table: all 22 queries on VectorH
// versus the baseline personalities.
func BenchmarkTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TPCH(benchSF, 3,
			[]baseline.Flavor{baseline.HAWQ, baseline.SparkSQL, baseline.Impala, baseline.Hive})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkTPCHPerQuery runs each query as its own benchmark target on the
// VectorH engine only, reporting allocations — for measuring while you work;
// the recorded per-query trajectory is bench/history.jsonl (see
// bench/README.md).
func BenchmarkTPCHPerQuery(b *testing.B) {
	d := tpch.Generate(benchSF, 9)
	eng, err := experiments.NewEngine(3, 2, 6)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpch.LoadIntoEngine(eng, d, 6); err != nil {
		b.Fatal(err)
	}
	for q := 1; q <= tpch.NumQueries; q++ {
		q := q
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := tpch.BuildQuery(q, eng)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Query(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTPCHRefresh runs the TPC-H refresh streams RF1/RF2 as SQL DML
// through the PDT trickle-update path (with update propagation forced) and
// re-validates every SQL TPC-H query against expected results recomputed
// over the post-refresh data. Named so CI's `-bench=TPCH` smoke step picks
// it up: the update path gets the same can't-silently-rot guarantee as the
// query path.
func BenchmarkTPCHRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Refresh(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range res.Queries {
			if !q.Match {
				b.Fatalf("Q%02d diverged from the recomputed expected result after refresh", q.Q)
			}
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkTPCHSelectivity sweeps the Q6-shaped scan across predicate
// selectivities, comparing the late-materialized pushdown pipeline against
// the Select-above-scan pipeline (blocks read, bytes decoded, ns/op) and
// validating that both return the same aggregates. Named so CI's
// `-bench=TPCH` smoke step picks it up: the scan-pushdown path gets the
// same can't-silently-rot guarantee as the query and update paths.
func BenchmarkTPCHSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Selectivity(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllMatch() {
			b.Fatal("pushdown pipeline diverged from the Select-above-scan pipeline")
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkTPCHJoinOrder runs the join-heavy TPC-H queries from their
// hand-built plans (hand-written join order) and from SQL text (the
// stats-driven ordering pass in internal/sql), validating row-identical
// results and reporting the per-query cost of the optimizer's choice —
// the numbers `vectorh-bench -exp joinorder` records into BENCH_tpch.json.
// Named so CI's `-bench=TPCH` smoke step picks it up: the join-order pass
// gets the same can't-silently-rot guarantee as the other planner paths.
func BenchmarkTPCHJoinOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.JoinOrder(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllMatch() {
			b.Fatal("an optimizer-ordered plan diverged from its hand-built counterpart")
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkTPCHCompression runs the execute-on-compressed-data experiment:
// the target TPC-H queries with compressed-domain execution (dictionary
// verdicts, code-space sieves and join/group keys, frame-bounds skips) on
// and off, validating row-identical results and reporting the decode /
// materialization / skip work of each pipeline — the numbers
// `vectorh-bench -exp compression` records into BENCH_tpch.json. Named so
// CI's `-bench=TPCH` smoke step picks it up: the code-space kernels get the
// same can't-silently-rot guarantee as the other scan paths.
func BenchmarkTPCHCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Compression(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllMatch() {
			b.Fatal("the code-space pipeline diverged from the value-space pipeline")
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

// BenchmarkUpdateImpact regenerates the bottom block of Figure 7: RF1/RF2
// times and the GeoDiff of query performance after updates (paper: VectorH
// 102.8% vs Hive 138.2%).
// BenchmarkTPCHConcurrency drives the full serving-layer scaling experiment
// (1..256 prepared-statement sessions over loopback TCP). Run with
// -mutexprofile to see where sessions contend.
func BenchmarkTPCHConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Concurrency(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllMatch {
			b.Fatal("a remote result diverged from in-process execution")
		}
		if res.PlanCacheHitRate < 0.9 {
			b.Fatalf("plan cache hit rate %.1f%%, want >= 90%%", 100*res.PlanCacheHitRate)
		}
		if i == 0 {
			b.Log("\n" + res.Report())
		}
	}
}

func BenchmarkUpdateImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.UpdateImpact(benchSF, 3, []int{1, 3, 6, 12, 14})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.Logf("%-8s RF1=%v RF2=%v GeoDiff=%.1f%%", r.System, r.RF1, r.RF2, r.GeoDiff*100)
			}
		}
	}
}

// BenchmarkTPCHProfileOverhead measures the cost of per-operator profiling:
// the same TPC-H query executed plain ("off", the default path — no wrapper
// operators are inserted, so it pays nothing per batch) and under EXPLAIN
// ANALYZE ("on", every operator wrapped, phase spans recorded). Compare the
// two sub-benchmark timings to read the overhead; both runs are validated
// row-count-identical. Named so CI's bench smoke picks it up and the
// profiled execution path cannot silently rot.
func BenchmarkTPCHProfileOverhead(b *testing.B) {
	d := tpch.Generate(benchSF, 9)
	eng, err := experiments.NewEngine(3, 2, 6)
	if err != nil {
		b.Fatal(err)
	}
	if err := tpch.LoadIntoEngine(eng, d, 6); err != nil {
		b.Fatal(err)
	}
	db := &vectorh.DB{Engine: eng}
	query := tpch.SQLQueries[1]
	plainRows, err := db.QuerySQL(query)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.QuerySQL(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != len(plainRows) {
				b.Fatalf("plain run returned %d rows, want %d", len(rows), len(plainRows))
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := db.QueryProfileSQL(context.Background(), query)
			if err != nil {
				b.Fatal(err)
			}
			if len(p.Rows) != len(plainRows) {
				b.Fatalf("profiled run returned %d rows, want %d", len(p.Rows), len(plainRows))
			}
			if len(p.Operators) == 0 {
				b.Fatal("profiled run recorded no operators")
			}
		}
	})
}

// BenchmarkProfileQ1 regenerates the Appendix per-operator profile of Q1.
func BenchmarkProfileQ1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ProfileQ1(benchSF, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep)
		}
	}
}
