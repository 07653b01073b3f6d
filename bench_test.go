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
	"vectorh/internal/core"
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
				if _, err := eng.Run(context.Background(), p, core.QueryOptions{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateImpact regenerates the bottom block of Figure 7: RF1/RF2
// times and the GeoDiff of query performance after updates (paper: VectorH
// 102.8% vs Hive 138.2%).
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
