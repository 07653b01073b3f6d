// Command vectorh-bench regenerates the paper's evaluation artifacts (see
// the experiment index in DESIGN.md):
//
//	vectorh-bench -exp fig1     # Figure 1: format micro-benchmarks
//	vectorh-bench -exp fig2     # Figure 2: affinity under node failure
//	vectorh-bench -exp fig5     # §5 rewrite-rule ablation
//	vectorh-bench -exp load     # §7 load-path comparison
//	vectorh-bench -exp tpch     # Figure 7: TPC-H table + speedups
//	vectorh-bench -exp updates  # Figure 7 bottom: RF1/RF2 + GeoDiff
//	vectorh-bench -exp refresh  # RF1/RF2 as SQL DML + post-refresh validation
//	vectorh-bench -exp concurrency # multi-session throughput through vectorh-serve
//	vectorh-bench -exp selectivity # scan pushdown vs Select-above-scan sweep
//	vectorh-bench -exp joinorder   # hand-written vs optimizer-chosen join order
//	vectorh-bench -exp compression # execute-on-compressed-data: code-space vs value-space
//	vectorh-bench -exp profile  # Appendix: Q1 per-operator profile
//	vectorh-bench -exp all
//
// refresh, concurrency, selectivity, joinorder and compression also record
// their numbers in a block of BENCH_tpch.json (-json). The per-query latency
// trajectory lives in bench/history.jsonl (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vectorh/internal/baseline"
	"vectorh/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig2|fig5|load|tpch|updates|refresh|concurrency|selectivity|joinorder|compression|profile|all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	nodes := flag.Int("nodes", 3, "simulated worker nodes")
	jsonPath := flag.String("json", "BENCH_tpch.json", "file the refresh/concurrency/selectivity/joinorder/compression blocks are recorded in")
	flag.Parse()

	runs := map[string]func() error{
		"fig1": func() error {
			res, err := experiments.Fig1(*sf)
			if err != nil {
				return err
			}
			fmt.Print(res.Report())
			return nil
		},
		"fig2": func() error {
			rep, err := experiments.Fig2()
			if err != nil {
				return err
			}
			fmt.Print(rep)
			return nil
		},
		"fig5": func() error {
			res, err := experiments.Fig5Ablation(*sf, *nodes)
			if err != nil {
				return err
			}
			fmt.Println("§5 rewrite-rule ablation (paper: 5.02/5.64/5.67/25.51/26.14 s):")
			for _, r := range res {
				fmt.Printf("  %-24s %v\n", r.Name, r.Elapsed)
			}
			return nil
		},
		"load": func() error {
			res, err := experiments.LoadPaths(9, 8000)
			if err != nil {
				return err
			}
			fmt.Println("§7 load paths (paper: 1237s remote / 850s local / 892s connector):")
			for _, r := range res {
				fmt.Printf("  %-24s %-12v local=%dKB remote=%dKB\n", r.Name, r.Elapsed,
					r.LocalBytes/1024, r.RemoteBytes/1024)
			}
			return nil
		},
		"tpch": func() error {
			res, err := experiments.TPCH(*sf, *nodes,
				[]baseline.Flavor{baseline.HAWQ, baseline.SparkSQL, baseline.Impala, baseline.Hive})
			if err != nil {
				return err
			}
			fmt.Print(res.Report())
			return nil
		},
		"updates": func() error {
			res, err := experiments.UpdateImpact(*sf, *nodes, []int{1, 3, 6, 12, 14})
			if err != nil {
				return err
			}
			fmt.Println("update impact (paper: Hive GeoDiff 138.2%, VectorH 102.8%):")
			for _, r := range res {
				fmt.Printf("  %-8s RF1=%-12v RF2=%-12v GeoDiff=%.1f%%\n", r.System, r.RF1, r.RF2, r.GeoDiff*100)
			}
			return nil
		},
		"refresh": func() error {
			return runRefresh(*sf, *nodes, *jsonPath)
		},
		"concurrency": func() error {
			return runConcurrency(*sf, *nodes, *jsonPath)
		},
		"selectivity": func() error {
			return runSelectivity(*sf, *nodes, *jsonPath)
		},
		"joinorder": func() error {
			return runJoinOrder(*sf, *nodes, *jsonPath)
		},
		"compression": func() error {
			return runCompression(*sf, *nodes, *jsonPath)
		},
		"profile": func() error {
			rep, err := experiments.ProfileQ1(*sf, *nodes)
			if err != nil {
				return err
			}
			fmt.Print(rep)
			return nil
		},
	}
	order := []string{"fig1", "fig2", "fig5", "load", "tpch", "updates", "refresh", "profile"}
	if *exp != "all" {
		run, ok := runs[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		if err := run(); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range order {
		fmt.Printf("===== %s =====\n", name)
		if err := runs[name](); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
