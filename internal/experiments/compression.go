package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
)

// CompressionPoint is one target query measured with compressed-domain
// execution on (dictionary verdicts, code-space sieves and join/group keys,
// frame-bounds skips) and off (fully materialized value-space pipeline),
// with the physical decode work of each.
type CompressionPoint struct {
	Query string
	Rows  int

	// Code-space pipeline.
	NsPerOp           int64
	AllocsPerOp       int64
	BytesDecoded      int64
	BytesMaterialized int64
	BytesSkipped      int64
	SpansPruned       int64

	// Value-space pipeline.
	OffNsPerOp           int64
	OffBytesDecoded      int64
	OffBytesMaterialized int64
	OffBytesSkipped      int64
	OffSpansPruned       int64

	Match bool // both pipelines returned the same rows
}

// CompressionTable is one table's bytes-on-disk: raw (decoded value bytes)
// against the encoded block payloads actually stored.
type CompressionTable struct {
	Table        string
	RawBytes     int64
	EncodedBytes int64
}

// Ratio is raw over encoded (higher = better compression).
func (t CompressionTable) Ratio() float64 {
	if t.EncodedBytes == 0 {
		return 0
	}
	return float64(t.RawBytes) / float64(t.EncodedBytes)
}

// CompressionResult is the full execute-on-compressed-data measurement.
type CompressionResult struct {
	SF      float64
	Storage []CompressionTable
	Points  []CompressionPoint
}

// AllMatch reports whether every query validated.
func (r *CompressionResult) AllMatch() bool {
	for _, p := range r.Points {
		if !p.Match {
			return false
		}
	}
	return true
}

// Report renders the measurement as text.
func (r *CompressionResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "executing on compressed data (sf=%g), code-space vs value-space pipelines:\n", r.SF)
	fmt.Fprintf(&sb, "  storage (bytes on disk):\n")
	for _, t := range r.Storage {
		fmt.Fprintf(&sb, "    %-10s %5.2fx  (%d raw -> %d encoded)\n",
			t.Table, t.Ratio(), t.RawBytes, t.EncodedBytes)
	}
	fmt.Fprintf(&sb, "  %-4s %10s %10s %12s %12s %12s %12s %12s %8s\n",
		"", "ns/op", "off ns/op", "decoded", "off decoded", "mat", "off mat", "skipped", "pruned")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-4s %10d %10d %12d %12d %12d %12d %12d %8d\n",
			p.Query, p.NsPerOp, p.OffNsPerOp, p.BytesDecoded, p.OffBytesDecoded,
			p.BytesMaterialized, p.OffBytesMaterialized, p.BytesSkipped, p.SpansPruned)
	}
	return sb.String()
}

// compressionQueries are the target queries: Q01/Q06/Q12 are scan-dominated
// with date/quantity range predicates (frame-bounds verdicts), Q13/Q16 group
// and join on strings (dictionary-code execution).
var compressionQueries = []int{1, 6, 12, 13, 16}

// Compression measures the execute-on-compressed-data path over the TPC-H
// target queries: per-table bytes-on-disk, then per query the decode bytes,
// skipped bytes, pruned spans and per-op cost with compressed-domain
// execution on and off, validating row-identical results.
func Compression(sf float64, nodes int) (*CompressionResult, error) {
	// No block cache: this experiment meters decode work per iteration.
	eng, err := NewEngineNoCache(nodes, 2, 2*nodes)
	if err != nil {
		return nil, err
	}
	d := tpch.Generate(sf, 9)
	if err := tpch.LoadIntoEngine(eng, d, 2*nodes); err != nil {
		return nil, err
	}

	res := &CompressionResult{SF: sf}
	for _, t := range eng.TableStorage() {
		res.Storage = append(res.Storage, CompressionTable{
			Table: t.Table, RawBytes: t.RawBytes, EncodedBytes: t.EncodedBytes,
		})
	}

	for _, q := range compressionQueries {
		p, err := sql.Compile(tpch.SQLQueries[q], eng)
		if err != nil {
			return nil, fmt.Errorf("Q%02d: %w", q, err)
		}
		pt := CompressionPoint{Query: fmt.Sprintf("Q%02d", q)}

		const on, off = rewriter.Rules(0), rewriter.CompressedExec
		run := func(disable rewriter.Rules) ([][]any, error) {
			r, err := eng.Run(context.Background(), p, core.QueryOptions{Disable: disable}, nil)
			if err != nil {
				return nil, err
			}
			return r.Rows, nil
		}
		// Warm both paths once and validate them against each other: same
		// engine, same rows, only the execution domain differs.
		rowsOn, err := run(on)
		if err != nil {
			return nil, fmt.Errorf("Q%02d code-space: %w", q, err)
		}
		rowsOff, err := run(off)
		if err != nil {
			return nil, fmt.Errorf("Q%02d value-space: %w", q, err)
		}
		pt.Match = rowsEqual(rowsOn, rowsOff)
		pt.Rows = len(rowsOn)

		reps := 5
		measure := func(disable rewriter.Rules) (nsPerOp, allocsPerOp, decoded, materialized, skipped, pruned int64, err error) {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			s0 := eng.ScanStats()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if _, err = run(disable); err != nil {
					return
				}
			}
			elapsed := time.Since(t0)
			s1 := eng.ScanStats()
			runtime.ReadMemStats(&m1)
			n := int64(reps)
			return elapsed.Nanoseconds() / n, int64(m1.Mallocs-m0.Mallocs) / n,
				(s1.BytesDecoded - s0.BytesDecoded) / n,
				(s1.BytesMaterialized - s0.BytesMaterialized) / n,
				(s1.BytesSkipped - s0.BytesSkipped) / n,
				(s1.SpansPruned - s0.SpansPruned) / n, nil
		}
		if pt.NsPerOp, pt.AllocsPerOp, pt.BytesDecoded, pt.BytesMaterialized, pt.BytesSkipped, pt.SpansPruned, err = measure(on); err != nil {
			return nil, err
		}
		if pt.OffNsPerOp, _, pt.OffBytesDecoded, pt.OffBytesMaterialized, pt.OffBytesSkipped, pt.OffSpansPruned, err = measure(off); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
