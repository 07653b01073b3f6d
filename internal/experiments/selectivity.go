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

// SelectivityPoint is one predicate-selectivity measurement of the
// late-materialized scan path: the Q6-shaped lineitem scan at one date
// window, with the pushdown pipeline's physical work (blocks read, bytes
// decoded, spans pruned before payload decode) next to the
// Select-above-scan pipeline's.
type SelectivityPoint struct {
	Label       string  // date window description
	Selectivity float64 // fraction of lineitem rows qualifying
	Rows        int64   // qualifying rows

	// Pushdown pipeline (predicates evaluated inside the scan).
	NsPerOp      int64
	AllocsPerOp  int64
	BlocksRead   int64
	BytesDecoded int64
	SpansPruned  int64

	// Select-above-scan pipeline (pushdown disabled).
	OffNsPerOp      int64
	OffBlocksRead   int64
	OffBytesDecoded int64

	Match bool // both pipelines returned the same aggregate
}

// SelectivityResult is the full sweep.
type SelectivityResult struct {
	SF     float64
	Rows   int64 // lineitem rows
	Points []SelectivityPoint
}

// AllMatch reports whether every point validated.
func (r *SelectivityResult) AllMatch() bool {
	for _, p := range r.Points {
		if !p.Match {
			return false
		}
	}
	return true
}

// Report renders the sweep as text.
func (r *SelectivityResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scan selectivity sweep (sf=%g, %d lineitem rows), pushdown vs select-above-scan:\n", r.SF, r.Rows)
	fmt.Fprintf(&sb, "  %-22s %6s %10s %10s %12s %12s %8s\n",
		"window", "sel", "ns/op", "off ns/op", "bytes", "off bytes", "pruned")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-22s %5.1f%% %10d %10d %12d %12d %8d\n",
			p.Label, p.Selectivity*100, p.NsPerOp, p.OffNsPerOp, p.BytesDecoded, p.OffBytesDecoded, p.SpansPruned)
	}
	return sb.String()
}

// selectivityWindows are the swept l_shipdate windows, widest to empty.
var selectivityWindows = []struct{ label, lo, hi string }{
	{"all (7 years)", "1992-01-01", "1999-01-01"},
	{"3 years", "1993-01-01", "1996-01-01"},
	{"1 year", "1994-01-01", "1995-01-01"},
	{"1 month", "1994-03-01", "1994-04-01"},
	{"1 week", "1994-03-01", "1994-03-08"},
	{"empty (future)", "2020-01-01", "2021-01-01"},
}

// Selectivity sweeps a Q6-shaped scan-dominated aggregation over lineitem
// across predicate selectivities, recording for each window the physical
// scan work and per-op cost of the late-materialized pushdown pipeline and
// of the pre-pushdown Select-above-scan pipeline, and validating that both
// return the same aggregate.
func Selectivity(sf float64, nodes int) (*SelectivityResult, error) {
	// No block cache: this experiment meters decode work per iteration.
	eng, err := NewEngineNoCache(nodes, 2, 2*nodes)
	if err != nil {
		return nil, err
	}
	d := tpch.Generate(sf, 9)
	if err := tpch.LoadIntoEngine(eng, d, 2*nodes); err != nil {
		return nil, err
	}
	total, err := eng.TableRows("lineitem")
	if err != nil {
		return nil, err
	}
	res := &SelectivityResult{SF: sf, Rows: total}

	for _, w := range selectivityWindows {
		q := fmt.Sprintf(`select sum(l_extendedprice * l_discount) as revenue, count(*) as n
			from lineitem
			where l_shipdate >= date '%s' and l_shipdate < date '%s'
			  and l_discount between 0.02 and 0.09 and l_quantity < 45`, w.lo, w.hi)
		p, err := sql.Compile(q, eng)
		if err != nil {
			return nil, fmt.Errorf("selectivity %q: %w", w.label, err)
		}
		pt := SelectivityPoint{Label: w.label}

		const on, off = rewriter.Rules(0), rewriter.ScanPushdown
		run := func(disable rewriter.Rules) ([][]any, error) {
			r, err := eng.Run(context.Background(), p, core.QueryOptions{Disable: disable}, nil)
			if err != nil {
				return nil, err
			}
			return r.Rows, nil
		}
		// Warm both paths once (and validate the aggregates against each
		// other: same engine, same rows, only the scan pipeline differs).
		rowsOn, err := run(on)
		if err != nil {
			return nil, err
		}
		rowsOff, err := run(off)
		if err != nil {
			return nil, err
		}
		pt.Match = rowsEqual(rowsOn, rowsOff)
		if len(rowsOn) == 1 && len(rowsOn[0]) == 2 {
			if n, ok := rowsOn[0][1].(int64); ok {
				pt.Rows = n
				if total > 0 {
					pt.Selectivity = float64(n) / float64(total)
				}
			}
		}

		reps := 5
		measure := func(disable rewriter.Rules) (nsPerOp, allocsPerOp, blocks, bytes, pruned int64, err error) {
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
				(s1.BlocksRead - s0.BlocksRead) / n, (s1.BytesDecoded - s0.BytesDecoded) / n,
				(s1.SpansPruned - s0.SpansPruned) / n, nil
		}
		if pt.NsPerOp, pt.AllocsPerOp, pt.BlocksRead, pt.BytesDecoded, pt.SpansPruned, err = measure(on); err != nil {
			return nil, err
		}
		if pt.OffNsPerOp, _, pt.OffBlocksRead, pt.OffBytesDecoded, _, err = measure(off); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
