package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"vectorh/internal/exec"
	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// QueryOptions tune one query execution (rule ablation, profiling).
type QueryOptions struct {
	// Disable switches rewrite rules off for this query; the zero value runs
	// every rule. Only the §5 ablation, the colocated example and the parity
	// gates disable anything: ScanPushdown off (a scan with no predicate,
	// reading every block, under a Select) and CompressedExec off are their
	// reference paths.
	Disable rewriter.Rules
	// Profile enables the per-operator profile of the Appendix and the
	// EXPLAIN ANALYZE rendering (Analyzed/Operators on the result). The off
	// path inserts no wrappers at all, so it costs nothing per batch.
	Profile bool
	// Trace, when non-nil, receives the rewrite and execute phase spans and
	// (under Profile) the aggregated per-operator profiles.
	Trace *obs.Trace
}

// QueryResult carries rows plus execution metadata.
type QueryResult struct {
	Rows    [][]any
	Explain string
	Elapsed time.Duration

	// EXPLAIN ANALYZE output, filled when QueryOptions.Profile is set: the
	// plan tree annotated with estimated vs actual rows, batch counts and
	// per-operator wall time (Analyzed), the per-node aggregates behind it
	// (Operators, heaviest first), and the query's exact scan IO (Scan),
	// summed from the retained counters of its scan operators.
	Analyzed  string
	Operators []obs.OpProfile
	Scan      obs.ScanIO
}

// Run is the engine's one query path: rewrite the logical plan, instantiate
// it with ctx threaded into scans and exchanges, and drain the single root
// stream at the session master batch by batch. A deadline or cancellation
// stops the scans, local exchange producers and DXchg senders at batch
// granularity, releasing their goroutines and storage snapshots.
//
// Each root batch is delivered to yield as the root produces it (the
// serving layer encodes it into its `rows` frames) and res.Rows stays nil;
// the batch, its vectors and its strings are valid until yield returns. A
// non-nil error from yield cancels the execution. A nil yield boxes the rows
// into res.Rows with vector.BoxRows.
func (e *Engine) Run(ctx context.Context, q plan.Node, qo QueryOptions, yield func(*vector.Batch) error) (*QueryResult, error) {
	res := &QueryResult{}
	if yield == nil {
		yield = func(b *vector.Batch) error {
			res.Rows = vector.BoxRows(res.Rows, b)
			return nil
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Every execution gets a private cancelable context derived from the
	// caller's: it is cancelled when this function returns, so exchange
	// watchdogs and abandoned producer goroutines never outlive the query.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	e.mu.RLock()
	nodes := len(e.active)
	net := e.net
	e.mu.RUnlock()

	opts := rewriter.DefaultOptions(nodes, e.cfg.ThreadsPerNode)
	opts.Disable = qo.Disable
	rewriteDone := qo.Trace.StartPhase("rewrite")
	phys, est, err := rewriter.RewriteEst(q, e, opts)
	rewriteDone()
	if err != nil {
		return nil, err
	}
	env := &rewriter.Env{
		Ctx:      ctx,
		Net:      net,
		Provider: e,
		Nodes:    nodes,
		Threads:  e.cfg.ThreadsPerNode,
		MsgBytes: e.cfg.MsgBytes,
	}
	if qo.Profile {
		env.Profile = &rewriter.Profile{}
	}
	streams, err := rewriter.Instantiate(phys, env)
	if err != nil {
		return nil, fmt.Errorf("core: instantiate: %w\n%s", err, rewriter.Explain(phys))
	}
	var root exec.Operator
	count := 0
	for n := range streams {
		for _, s := range streams[n] {
			root = s
			count++
		}
	}
	if count != 1 {
		return nil, fmt.Errorf("core: plan root has %d streams\n%s", count, rewriter.Explain(phys))
	}
	start := time.Now()
	if err := root.Open(); err != nil {
		root.Close()
		return nil, err
	}
	for {
		if cerr := ctx.Err(); cerr != nil {
			root.Close()
			return nil, fmt.Errorf("core: query canceled: %w", context.Cause(ctx))
		}
		b, err := root.Next()
		if err != nil {
			root.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		if err := yield(b); err != nil {
			root.Close()
			return nil, err
		}
	}
	// A cancellation that lands while Next is blocked can surface as a
	// clean end-of-stream (the exchange teardown closes consumer channels);
	// re-check the context before declaring success, or a truncated result
	// would be reported as complete.
	if cerr := ctx.Err(); cerr != nil {
		root.Close()
		return nil, fmt.Errorf("core: query canceled: %w", context.Cause(ctx))
	}
	if err := root.Close(); err != nil {
		return nil, err
	}
	res.Explain = rewriter.Explain(phys)
	res.Elapsed = time.Since(start)
	qo.Trace.AddPhase("execute", res.Elapsed)
	if qo.Profile {
		res.Analyzed, res.Operators, res.Scan = buildAnalyzed(phys, est, env.Profile)
		for _, op := range res.Operators {
			qo.Trace.AddOp(op)
		}
	}
	return res, nil
}

// scanIOReporter is implemented by scan operators that retain their IO
// totals past Close for per-operator attribution.
type scanIOReporter interface{ ScanIOStats() obs.ScanIO }

// buildAnalyzed aggregates the profiled streams of each plan node and
// renders the EXPLAIN ANALYZE tree: the cost model's ~N estimate next to the
// measured rows, batches, peak batch size and cumulative wall time, plus
// blocks/bytes/pruned-spans for scans and, for hash joins, the rows built
// into their tables and how many distinct tables there were. It also
// returns the flat per-node aggregates (heaviest first) and the query's
// total scan IO.
func buildAnalyzed(phys rewriter.Phys, est map[rewriter.Phys]int64, prof *rewriter.Profile) (string, []obs.OpProfile, obs.ScanIO) {
	type agg struct {
		op    obs.OpProfile
		hasIO bool
		sides map[*exec.BuildSide]bool // a hash join's distinct tables
	}
	byPhys := make(map[rewriter.Phys]*agg, len(prof.Streams))
	order := make([]rewriter.Phys, 0, len(prof.Streams))
	var total obs.ScanIO
	for _, sp := range prof.Streams {
		a := byPhys[sp.Phys]
		if a == nil {
			a = &agg{}
			a.op.Label = rewriter.Label(sp.Phys)
			byPhys[sp.Phys] = a
			order = append(order, sp.Phys)
		}
		a.op.Nanos += time.Duration(atomic.LoadInt64(&sp.Prof.Nanos))
		a.op.Rows += atomic.LoadInt64(&sp.Prof.TuplesOut)
		a.op.Batches += atomic.LoadInt64(&sp.Prof.Batches)
		if pb := atomic.LoadInt64(&sp.Prof.PeakBatch); pb > a.op.PeakBatch {
			a.op.PeakBatch = pb
		}
		a.op.Streams++
		if r, ok := sp.Prof.Child.(scanIOReporter); ok {
			io := r.ScanIOStats()
			a.op.Add(io)
			total.Add(io)
			a.hasIO = true
		}
		if j, ok := sp.Prof.Child.(*exec.HashJoin); ok && !a.sides[j.Build] {
			if a.sides == nil {
				a.sides = map[*exec.BuildSide]bool{}
			}
			a.sides[j.Build] = true
			a.op.BuildRows += j.Build.BuiltRows()
			a.op.BuildUnique = j.Build.Unique() && (a.op.BuildTables == 0 || a.op.BuildUnique)
			a.op.BuildTables++
		}
	}
	analyzed := rewriter.ExplainFunc(phys, func(p rewriter.Phys) string {
		a := byPhys[p]
		rows, hasEst := est[p]
		if a == nil && !hasEst {
			return ""
		}
		var sb strings.Builder
		if hasEst {
			fmt.Fprintf(&sb, " ~%d rows", rows)
		}
		if a != nil {
			fmt.Fprintf(&sb, " (actual rows=%d batches=%d peak=%d time=%.3fms streams=%d",
				a.op.Rows, a.op.Batches, a.op.PeakBatch, float64(a.op.Nanos)/1e6, a.op.Streams)
			if a.hasIO {
				fmt.Fprintf(&sb, " blocks=%d bytes=%d pruned=%d cached=%d skipped=%d materialized=%d",
					a.op.BlocksRead, a.op.BytesDecoded, a.op.SpansPruned, a.op.CacheHits,
					a.op.BytesSkipped, a.op.BytesMaterialized)
				if a.op.DeltaSpans > 0 {
					fmt.Fprintf(&sb, " deltas=%d deleted=%d", a.op.DeltaSpans, a.op.DeletedRows)
				}
			}
			if a.sides != nil {
				fmt.Fprintf(&sb, " built=%d rows in %d tables", a.op.BuildRows, a.op.BuildTables)
				if a.op.BuildUnique {
					sb.WriteString(" unique")
				}
			}
			sb.WriteByte(')')
		}
		return sb.String()
	})
	ops := make([]obs.OpProfile, 0, len(order))
	for _, p := range order {
		ops = append(ops, byPhys[p].op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Nanos > ops[j].Nanos })
	return analyzed, ops, total
}

// Explain returns the distributed physical plan without executing it.
func (e *Engine) Explain(q plan.Node) (string, error) {
	e.mu.RLock()
	nodes := len(e.active)
	e.mu.RUnlock()
	phys, est, err := rewriter.RewriteEst(q, e, rewriter.DefaultOptions(nodes, e.cfg.ThreadsPerNode))
	if err != nil {
		return "", err
	}
	return rewriter.ExplainEst(phys, est), nil
}
