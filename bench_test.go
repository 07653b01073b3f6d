// Benchmarks for measuring while you work: the §5 ablation's times, bulk
// load, each TPC-H query and the cost of profiling. The paper's claims are
// asserted by tests, not printed by benchmarks; EXPERIMENTS.md's index names
// the test that holds each artifact. Run with:
//
//	go test -run '^$' -bench=. -benchmem .
package vectorh_test

import (
	"context"
	"fmt"
	"testing"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/experiments"
	"vectorh/internal/tpch"
)

const benchSF = 0.01

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
				b.Logf("%-24s %v remote=%dKB", r.Name, r.Elapsed, r.RemoteBytes/1024)
			}
		}
	}
}

// BenchmarkLoad measures the real bulk-load path (§7's vwload): create the
// eight TPC-H tables and Engine.Load them into a fresh 3-node × 2-thread,
// 6-partition engine per iteration. Generation stays outside the timer;
// rows/s and allocations per load are the numbers EXPERIMENTS.md records.
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

// BenchmarkTPCHPerQuery runs each query as its own benchmark target on the
// VectorH engine, reporting allocations — for measuring while you work;
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
