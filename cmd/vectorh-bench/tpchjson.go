// The experiment blocks of BENCH_tpch.json: refresh, concurrency,
// selectivity, joinorder and compression each record their latest run in a
// block of their own. The per-query latency trajectory is not kept here — it
// lives in bench/history.jsonl, keyed by commit (see bench/README.md).
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"vectorh/internal/experiments"
)

// refreshBench records the RF1/RF2-as-SQL refresh experiment: stream
// timings plus the post-refresh validation verdict (see `-exp refresh`).
type refreshBench struct {
	RF1Rows          int64 `json:"rf1_rows"`
	RF1NsPerRow      int64 `json:"rf1_ns_per_row"`
	RF2Rows          int64 `json:"rf2_rows"`
	RF2NsPerRow      int64 `json:"rf2_ns_per_row"`
	Propagated       int   `json:"propagated_partitions"`
	QueriesValidated int   `json:"queries_validated"`
	AllMatch         bool  `json:"all_match"`
}

// concurrencyBench records the serving-layer experiment: aggregate
// queries/sec plus per-query latency percentiles of the SQL TPC-H workload
// at 1/4/16/64/256 concurrent prepared-statement sessions through
// vectorh-serve (see `-exp concurrency`). Before holds the curve recorded
// prior to the plan-cache/contention work; a refresh moves the previous
// points there, so the file carries its own before/after comparison.
type concurrencyBench struct {
	MaxConcurrent    int                     `json:"max_concurrent"`
	Validated        int                     `json:"queries_validated"`
	AllMatch         bool                    `json:"all_match"`
	PlanCacheHitRate float64                 `json:"plan_cache_hit_rate,omitempty"`
	Before           []concurrencyBenchPoint `json:"before,omitempty"`
	Points           []concurrencyBenchPoint `json:"points"`
}

type concurrencyBenchPoint struct {
	Sessions int     `json:"sessions"`
	Queries  int     `json:"queries"`
	ElapsedM int64   `json:"elapsed_ms"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms,omitempty"`
	P95Ms    float64 `json:"p95_ms,omitempty"`
	P99Ms    float64 `json:"p99_ms,omitempty"`
}

// selectivityBench records the scan-selectivity sweep: per predicate
// window, the late-materialized pushdown pipeline's physical scan work and
// per-op cost next to the Select-above-scan pipeline's (see `-exp
// selectivity`).
type selectivityBench struct {
	LineitemRows int64                   `json:"lineitem_rows"`
	AllMatch     bool                    `json:"all_match"`
	Points       []selectivityBenchPoint `json:"points"`
}

type selectivityBenchPoint struct {
	Window          string  `json:"window"`
	Selectivity     float64 `json:"selectivity"`
	Rows            int64   `json:"rows"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BlocksRead      int64   `json:"blocks_read"`
	BytesDecoded    int64   `json:"bytes_decoded"`
	SpansPruned     int64   `json:"spans_pruned"`
	OffNsPerOp      int64   `json:"off_ns_per_op"`
	OffBlocksRead   int64   `json:"off_blocks_read"`
	OffBytesDecoded int64   `json:"off_bytes_decoded"`
}

// compressionBench records the execute-on-compressed-data experiment: per
// table the bytes-on-disk (raw vs encoded), and per target query the decode
// bytes, skipped bytes, pruned spans and per-op cost with compressed-domain
// execution on and off (see `-exp compression`).
type compressionBench struct {
	AllMatch bool                    `json:"all_match"`
	Storage  []compressionBenchTable `json:"storage"`
	Points   []compressionBenchPoint `json:"points"`
}

type compressionBenchTable struct {
	Table        string  `json:"table"`
	RawBytes     int64   `json:"raw_bytes"`
	EncodedBytes int64   `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"`
}

type compressionBenchPoint struct {
	Query                string `json:"query"`
	Rows                 int    `json:"rows"`
	NsPerOp              int64  `json:"ns_per_op"`
	AllocsPerOp          int64  `json:"allocs_per_op"`
	BytesDecoded         int64  `json:"bytes_decoded"`
	BytesMaterialized    int64  `json:"bytes_materialized"`
	BytesSkipped         int64  `json:"bytes_skipped"`
	SpansPruned          int64  `json:"spans_pruned"`
	OffNsPerOp           int64  `json:"off_ns_per_op"`
	OffBytesDecoded      int64  `json:"off_bytes_decoded"`
	OffBytesMaterialized int64  `json:"off_bytes_materialized"`
	OffBytesSkipped      int64  `json:"off_bytes_skipped"`
	OffSpansPruned       int64  `json:"off_spans_pruned"`
}

// joinOrderBench records the join-order experiment: per join-heavy query,
// the hand-written join order's ns/op next to the stats-driven optimizer's
// (see `-exp joinorder`). Ratio is optimizer over hand; the planner's
// acceptance bar is ratio <= 1.1 on Q09 and Q21.
type joinOrderBench struct {
	AllMatch bool                  `json:"all_match"`
	Points   []joinOrderBenchPoint `json:"points"`
}

type joinOrderBenchPoint struct {
	Query     string  `json:"query"`
	HandNsOp  int64   `json:"hand_ns_per_op"`
	OptNsOp   int64   `json:"optimizer_ns_per_op"`
	Ratio     float64 `json:"ratio"`
	Rows      int     `json:"rows"`
	RowsMatch bool    `json:"rows_match"`
}

// benchFile is the on-disk BENCH_tpch.json schema.
type benchFile struct {
	SF          float64           `json:"sf"`
	Nodes       int               `json:"nodes"`
	Threads     int               `json:"threads"`
	Refresh     *refreshBench     `json:"refresh,omitempty"`
	Concurrency *concurrencyBench `json:"concurrency,omitempty"`
	Selectivity *selectivityBench `json:"selectivity,omitempty"`
	JoinOrder   *joinOrderBench   `json:"joinorder,omitempty"`
	Compression *compressionBench `json:"compression,omitempty"`
}

// updateBenchFile loads path if it exists, stamps this run's configuration,
// lets set fill one block (the others are preserved) and writes it back.
func updateBenchFile(path string, sf float64, nodes int, block string, set func(*benchFile)) error {
	const threads = 2 // every experiment's engine configuration
	file := benchFile{SF: sf, Nodes: nodes, Threads: threads}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &file); err != nil {
			return fmt.Errorf("%s exists but is not valid JSON (%w); fix or remove it first", path, err)
		}
		if file.SF != sf || file.Nodes != nodes {
			fmt.Fprintf(os.Stderr,
				"warning: %s was recorded at sf=%v nodes=%d, this run is sf=%v nodes=%d — the retained blocks are not comparable\n",
				path, file.SF, file.Nodes, sf, nodes)
		}
		file.SF, file.Nodes, file.Threads = sf, nodes, threads
	}
	set(&file)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s block of %s\n", block, path)
	return nil
}

// runRefresh runs the RF1/RF2-as-SQL refresh experiment, prints its report
// and records the numbers in the refresh block of BENCH_tpch.json (other blocks
// are preserved).
func runRefresh(sf float64, nodes int, path string) error {
	res, err := experiments.Refresh(sf, nodes)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if !res.AllMatch() {
		return fmt.Errorf("post-refresh validation failed: a query diverged from the recomputed expected result")
	}
	rf1Rows := res.RF1Orders + res.RF1Items
	rf2Rows := res.RF2Orders + res.RF2Items
	rb := &refreshBench{
		RF1Rows:          rf1Rows,
		RF1NsPerRow:      res.RF1Time.Nanoseconds() / max(rf1Rows, 1),
		RF2Rows:          rf2Rows,
		RF2NsPerRow:      res.RF2Time.Nanoseconds() / max(rf2Rows, 1),
		Propagated:       res.PropagatedPartitions,
		QueriesValidated: len(res.Queries),
		AllMatch:         true,
	}
	return updateBenchFile(path, sf, nodes, "refresh", func(f *benchFile) { f.Refresh = rb })
}

// runConcurrency runs the serving-layer concurrency experiment, prints its
// report and records the numbers in the concurrency block of
// BENCH_tpch.json (other blocks are preserved).
func runConcurrency(sf float64, nodes int, path string) error {
	res, err := experiments.Concurrency(sf, nodes)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if !res.AllMatch {
		return fmt.Errorf("concurrency validation failed: a remote result diverged from in-process execution")
	}
	if res.PlanCacheHitRate < 0.9 {
		return fmt.Errorf("plan cache hit rate %.1f%% is below the 90%% gate for a repeated-query workload",
			100*res.PlanCacheHitRate)
	}
	cb := &concurrencyBench{
		MaxConcurrent:    res.MaxConcurrent,
		Validated:        res.Validated,
		AllMatch:         res.AllMatch,
		PlanCacheHitRate: res.PlanCacheHitRate,
	}
	for _, p := range res.Points {
		cb.Points = append(cb.Points, concurrencyBenchPoint{
			Sessions: p.Sessions, Queries: p.Queries,
			ElapsedM: p.Elapsed.Milliseconds(), QPS: p.QPS,
			P50Ms: float64(p.P50.Microseconds()) / 1000,
			P95Ms: float64(p.P95.Microseconds()) / 1000,
			P99Ms: float64(p.P99.Microseconds()) / 1000,
		})
	}
	return updateBenchFile(path, sf, nodes, "concurrency", func(f *benchFile) {
		// Preserve the previously recorded curve as the "before" column
		// (once: the first refresh after a curve was recorded moves it there).
		if prev := f.Concurrency; prev != nil {
			if len(prev.Before) > 0 {
				cb.Before = prev.Before
			} else {
				cb.Before = prev.Points
			}
		}
		f.Concurrency = cb
	})
}

// runSelectivity runs the scan-selectivity sweep, prints its report and
// records the numbers in the selectivity block of BENCH_tpch.json (other
// blocks are preserved).
func runSelectivity(sf float64, nodes int, path string) error {
	res, err := experiments.Selectivity(sf, nodes)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if !res.AllMatch() {
		return fmt.Errorf("selectivity validation failed: the pushdown pipeline diverged from the Select-above-scan pipeline")
	}
	sb := &selectivityBench{LineitemRows: res.Rows, AllMatch: res.AllMatch()}
	for _, p := range res.Points {
		sb.Points = append(sb.Points, selectivityBenchPoint{
			Window: p.Label, Selectivity: p.Selectivity, Rows: p.Rows,
			NsPerOp: p.NsPerOp, AllocsPerOp: p.AllocsPerOp,
			BlocksRead: p.BlocksRead, BytesDecoded: p.BytesDecoded, SpansPruned: p.SpansPruned,
			OffNsPerOp: p.OffNsPerOp, OffBlocksRead: p.OffBlocksRead, OffBytesDecoded: p.OffBytesDecoded,
		})
	}
	return updateBenchFile(path, sf, nodes, "selectivity", func(f *benchFile) { f.Selectivity = sb })
}

// runCompression runs the execute-on-compressed-data experiment, prints its
// report and records the numbers in the compression block of
// BENCH_tpch.json (other blocks are preserved).
func runCompression(sf float64, nodes int, path string) error {
	res, err := experiments.Compression(sf, nodes)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if !res.AllMatch() {
		return fmt.Errorf("compression validation failed: the code-space pipeline diverged from the value-space pipeline")
	}
	cb := &compressionBench{AllMatch: res.AllMatch()}
	for _, t := range res.Storage {
		cb.Storage = append(cb.Storage, compressionBenchTable{
			Table: t.Table, RawBytes: t.RawBytes, EncodedBytes: t.EncodedBytes, Ratio: t.Ratio(),
		})
	}
	for _, p := range res.Points {
		cb.Points = append(cb.Points, compressionBenchPoint{
			Query: p.Query, Rows: p.Rows,
			NsPerOp: p.NsPerOp, AllocsPerOp: p.AllocsPerOp,
			BytesDecoded: p.BytesDecoded, BytesMaterialized: p.BytesMaterialized,
			BytesSkipped: p.BytesSkipped, SpansPruned: p.SpansPruned,
			OffNsPerOp: p.OffNsPerOp, OffBytesDecoded: p.OffBytesDecoded,
			OffBytesMaterialized: p.OffBytesMaterialized,
			OffBytesSkipped:      p.OffBytesSkipped, OffSpansPruned: p.OffSpansPruned,
		})
	}
	return updateBenchFile(path, sf, nodes, "compression", func(f *benchFile) { f.Compression = cb })
}

// runJoinOrder runs the join-order experiment, prints its report and
// records the numbers in the joinorder block of BENCH_tpch.json (other
// blocks are preserved).
func runJoinOrder(sf float64, nodes int, path string) error {
	res, err := experiments.JoinOrder(sf, nodes)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if !res.AllMatch() {
		return fmt.Errorf("join-order validation failed: an optimizer-ordered plan diverged from its hand-built counterpart")
	}
	jb := &joinOrderBench{AllMatch: res.AllMatch()}
	for _, p := range res.Points {
		jb.Points = append(jb.Points, joinOrderBenchPoint{
			Query: fmt.Sprintf("Q%02d", p.Q), HandNsOp: p.HandNs, OptNsOp: p.SQLNs,
			Ratio: p.Ratio(), Rows: p.Rows, RowsMatch: p.Match,
		})
	}
	return updateBenchFile(path, sf, nodes, "joinorder", func(f *benchFile) { f.JoinOrder = jb })
}
