package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"vectorh/internal/server"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	spec     *benchmarkSpec // /BENCHMARK.json: the metrics to report, with their units
	// oracleSample bounds the internal/baseline checks of one run (see
	// verify); negative checks every statement.
	oracleSample int
	quick        bool   // smoke test: shortest micro pass
	outDir       string // traces land here
}

// A traced replay runs for traceShare of the window, and at least
// minTracePasses passes: medians of fewer round trips are mostly GC noise.
const (
	traceShare     = 0.3
	minTracePasses = 4
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one run of one workload produced. Metrics holds exactly the
// contract's set for the mode (end_to_end untraced, per_layer traced); Info
// holds the rest of what the run prints.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Info      []metric
	Failures  []string
}

func (r *result) info(name string, v float64, unit string) {
	r.Info = append(r.Info, metric{name, v, unit})
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// runWorkload performs one complete run: set-up, measurement (or traced
// replay plus the micro pass), and verification against the oracles.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	in, err := newInstance(cfg.workload, cfg.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	res := &result{Workload: cfg.workload}
	res.info("generate_s", in.genTime.Seconds(), "s")
	res.info("load_s", in.loadTime.Seconds(), "s")

	var s *samples
	var vr *verifyResult
	if cfg.trace {
		s, vr, err = runTraced(ctx, cfg, in, res)
	} else {
		s, vr, err = runMeasured(ctx, cfg, in, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = s.ops, s.failed
	res.Failures = append(s.failures, vr.mismatches...)
	res.Correct = s.failed == 0 && len(vr.mismatches) == 0
	res.info("ops", float64(s.ops), "count")
	res.info("failed_ops", float64(s.failed), "count")
	res.info("latency_samples", float64(s.count()), "count")
	res.info("oracle_checked", float64(vr.checked), "count")
	res.info("oracle_mismatches", float64(len(vr.mismatches)), "count")
	res.info("oracle_s", vr.elapsed.Seconds(), "s")
	return res, nil
}

// refDigest serves the set-up reference digests to verify.
func refDigest(stmts []stmt) func(int) (digest, error) {
	return func(i int) (digest, error) { return stmts[i].ref, nil }
}

// runMeasured is the untraced run: the closed loop for the window, then the
// end-to-end metrics. Peak memory is read when the window closes: the oracles
// that run afterwards hold a second copy of the data, which is the harness's
// memory and not the engine's.
func runMeasured(ctx context.Context, cfg config, in *instance, res *result) (*samples, *verifyResult, error) {
	var s *samples
	var qps, peakRSS float64
	var vr *verifyResult
	var err error
	switch cfg.workload {
	case wRefreshMix:
		var out *refreshOutcome
		if out, err = runRefresh(ctx, cfg, in, 0); err == nil {
			s, qps, peakRSS, vr = out.reads, out.reads.throughput(), out.peakRSSMB, out.verified
			res.info("refresh_rounds", float64(out.rounds), "count")
			res.info("dml_rows_per_s", out.dmlRowsPerS, "rows/s")
		}
	case wSessions:
		s, qps, err = measureSessions(ctx, in, cfg.window(), cfg.seed)
	default:
		s, qps, err = measureSingle(ctx, in, cfg.window())
	}
	if err == nil && vr == nil {
		peakRSS = peakRSSMB()
		vr, err = verify(in.stmts, in.data, refDigest(in.stmts), cfg.oracleSample, cfg.seed)
	}
	if err != nil {
		return nil, nil, err
	}
	values := map[string]float64{
		"setup_s":            in.setupTime.Seconds(),
		"latency_geomean_ms": latencyGeomeanMs(s.lat),
		"latency_tail_ratio": tailRatio(s.lat),
		"throughput_qps":     qps,
		"first_row_ms":       latencyGeomeanMs(s.first),
		"peak_rss_mb":        peakRSS,
		"storage_ratio":      in.storageRatio,
	}
	for _, spec := range cfg.spec.EndToEnd {
		v, ok := values[spec.Name]
		if !ok {
			return nil, nil, fmt.Errorf("bench: end-to-end metric %s of %s is not measured", spec.Name, specFile)
		}
		res.Metrics = append(res.Metrics, metric{spec.Name, v, spec.Unit})
	}
	for i, st := range in.stmts {
		res.info("median_ms."+st.name, median(durationsMs(s.lat[i])), "ms")
	}
	return s, vr, nil
}

// refreshOutcome is what one refresh_mix run produced.
type refreshOutcome struct {
	reads       *samples // the dirty phase; ops and failures include the clean phase
	verified    *verifyResult
	rounds      int
	dmlRowsPerS float64
	peakRSSMB   float64 // when the dirty phase ended, before the oracles
	// slowdown is latency_geomean_ms with deltas in flight / the clean
	// phase's (0 without a clean phase).
	slowdown float64
}

// runRefresh drives refresh_mix: an optional clean phase of R (cleanShare of
// the window, traced runs only — its sole use is the update-slowdown ratio),
// then the dirty phase, then verification of the refreshed database.
func runRefresh(ctx context.Context, cfg config, in *instance, cleanShare float64) (*refreshOutcome, error) {
	c, err := server.Dial(in.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	window := cfg.window()
	var clean *samples
	if cleanShare > 0 {
		cleanWindow := time.Duration(float64(window) * cleanShare)
		clean = runPasses(ctx, sqlText(c, in.stmts), in.stmts, inOrder(len(in.stmts)), time.Now().Add(cleanWindow))
		window -= cleanWindow
	}
	rp := newRefreshPlan(in.data, cfg.seed)
	run := measureRefresh(ctx, c, in.stmts, rp, window)
	s, peakRSS := run.reads, peakRSSMB()

	after := rp.refreshed(in.data, run.rounds)
	if err := run.checkCounts(ctx, c, after); err != nil {
		s.fail("%v", err)
	}
	current := func(i int) (digest, error) {
		r, err := c.Query(ctx, in.stmts[i].sql)
		if err != nil {
			return digest{}, err
		}
		return digestRows(r.Rows, in.stmts[i].ordered), nil
	}
	vr, err := verify(in.stmts, after, current, cfg.oracleSample, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &refreshOutcome{reads: s, verified: vr, rounds: run.rounds, peakRSSMB: peakRSS,
		dmlRowsPerS: ratio(float64(run.dmlRows), run.dmlTime.Seconds())}
	if clean != nil {
		out.slowdown = ratio(latencyGeomeanMs(s.lat), latencyGeomeanMs(clean.lat))
		s.addOps(clean)
	}
	return out, nil
}

// runTraced is the traced run: per-layer numbers from the span replay and
// from the micro pass. It reports every per-layer metric; the two that only
// refresh_mix defines are 0 elsewhere.
func runTraced(ctx context.Context, cfg config, in *instance, res *result) (*samples, *verifyResult, error) {
	values, err := microLayers(ctx, in, cfg.quick)
	if err != nil {
		return nil, nil, fmt.Errorf("micro pass: %w", err)
	}
	values["tpch.generate_rows_per_s"] = ratio(float64(in.rowsLoaded()), in.genTime.Seconds())
	values["core.load_rows_per_s"] = ratio(float64(in.rowsLoaded()), in.loadTime.Seconds())
	values["pdt.update_slowdown_ratio"], values["txn.dml_rows_per_s"] = 0, 0

	var refresh *samples
	var vr *verifyResult
	if cfg.workload == wRefreshMix {
		// Half the window for a clean/dirty comparison, so that the replay
		// below sees R with deltas in flight.
		half := cfg
		half.seconds = cfg.seconds / 2
		out, err := runRefresh(ctx, half, in, 0.3)
		if err != nil {
			return nil, nil, err
		}
		refresh, vr = out.reads, out.verified
		values["pdt.update_slowdown_ratio"], values["txn.dml_rows_per_s"] = out.slowdown, out.dmlRowsPerS
	} else if vr, err = verify(in.stmts, in.data, refDigest(in.stmts), cfg.oracleSample, cfg.seed); err != nil {
		return nil, nil, err
	}

	out := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	traced, s, err := tracedRun(ctx, in, time.Duration(float64(cfg.window())*traceShare), cfg.workload != wRefreshMix, out)
	if err != nil {
		return nil, nil, err
	}
	if refresh != nil {
		s.addOps(refresh)
	}
	for k, v := range traced {
		values[k] = v
	}
	// The traced and untraced round trips take the same path through client,
	// server and engine (spans are recorded around them, outside the timed
	// call), so this ratio is 1 but for noise: an information line, no metric.
	res.info("obs.trace_overhead_ratio", values["obs.trace_overhead_ratio"], "ratio")
	for _, spec := range cfg.spec.PerLayer {
		v, ok := values[spec.Name]
		if !ok {
			return nil, nil, fmt.Errorf("bench: per-layer metric %s of %s is not measured", spec.Name, specFile)
		}
		res.Metrics = append(res.Metrics, metric{spec.Name, v, spec.Unit})
	}
	return s, vr, nil
}
