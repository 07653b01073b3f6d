package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vectorh/internal/obs"
	"vectorh/internal/server"
)

// Spans are recorded by the benchmark around its calls into each layer;
// spans inside the engine are a later (observability) change. They are kept
// in memory and written as Chrome-trace JSON when the run ends.
//
// Per statement id the trace holds
//
//	client.roundtrip            SQL text in -> last row decoded at the client
//	  core.inprocess            the same statement replayed through DB.QueryStreamSQL
//	replay.profiled             a second replay with per-operator profiling
//	  sql.compile, rewriter.rewrite, core.execute
//	    op:<label>              operator profiles (stream-summed inclusive time)
//	server.frame_encode / server.frame_decode   the result through WriteFrame / ReadFrame
//
// core.inprocess hangs under client.roundtrip although it runs later, so a
// trace viewer shows the round trip's self time (span minus children): what
// server, wire and client decode add on top of the engine. server.wire_ms is
// the same difference taken between per-statement medians.
type span struct {
	name       string
	start, dur time.Duration // start is relative to the trace's origin
	parent     int           // index into spans, -1 for a root
	stmtID     int
	args       map[string]any
}

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent, stmtID int, start time.Time, dur time.Duration, args map[string]any) int {
	t.spans = append(t.spans, span{name, start.Sub(t.origin), dur, parent, stmtID, args})
	return len(t.spans) - 1
}

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one lane per
// statement id.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent, "stmt_id": s.stmtID}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{s.name, "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, s.stmtID, args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opKind maps an operator label of QueryProfile.Operators to the per-layer
// metric that accumulates it.
func opKind(label string) string {
	switch {
	case strings.HasPrefix(label, "MScan"):
		return "exec.scan_ms"
	case strings.HasPrefix(label, "Aggr"):
		return "exec.aggr_ms"
	case strings.HasPrefix(label, "HashJoin"), strings.HasPrefix(label, "MergeJoin"):
		return "exec.join_ms"
	case strings.HasPrefix(label, "Sort"), strings.HasPrefix(label, "TopN"):
		return "exec.sort_ms"
	case strings.HasPrefix(label, "DXchg"):
		return "mpp.dxchg_ms"
	case strings.HasPrefix(label, "Xchg"):
		return "exec.xchg_ms"
	}
	return ""
}

// The engine-exported counts read at the boundaries of the traced round
// trips.
const (
	cBlocksRead = iota
	cBytesDecoded
	cBytesMaterialized
	cSpansPruned
	cCacheHits // blocks scans took from the decoded-block cache
	cRemoteBytes
	cRemoteMsgs
	cPlanHits
	cPlanMisses
	cLocalRead // hdfs bytes read from a replica on the reading node
	cRemoteRead
	nCounters
)

type counters [nCounters]int64

func readCounters(in *instance) counters {
	es := in.eng.Stats()
	net := in.eng.Net().Stats()
	pc := in.db.PlanCacheStats()
	fs := in.eng.FS().Stats()
	return counters{
		cBlocksRead: es.Scan.BlocksRead, cBytesDecoded: es.Scan.BytesDecoded,
		cBytesMaterialized: es.Scan.BytesMaterialized, cSpansPruned: es.Scan.SpansPruned,
		cCacheHits:   es.ScanCacheHit,
		cRemoteBytes: net.RemoteBytes, cRemoteMsgs: net.RemoteMsgs,
		cPlanHits: pc.Hits, cPlanMisses: pc.Misses,
		cLocalRead: fs.LocalBytesRead, cRemoteRead: fs.RemoteBytesRead,
	}
}

// replay is the state of one traced run.
type replay struct {
	in *instance
	c  *server.Client
	tr *tracer
	s  *samples
	// checkRef compares every round trip with the set-up reference (off for
	// refresh_mix, whose answers have moved by the time it is traced).
	checkRef bool

	opMs                  map[string]float64 // operator-kind metric -> stream-summed ms
	roundTrips, inProc    [][]float64        // per statement, ms: traced round trips and plain replays
	queueTotal, execPhase time.Duration
	mallocs, allocBytes   uint64
	roundTripSpan         []int    // statement id -> its client.roundtrip span
	counts                counters // summed over the traced round-trip phases only
}

// roundTrip sends statement i through the client, as the measured loop does.
func (r *replay) roundTrip(ctx context.Context, i int) (*server.Result, time.Time, time.Duration, error) {
	st := &r.in.stmts[i]
	t0 := time.Now()
	res, err := r.c.Query(ctx, st.sql)
	d := time.Since(t0)
	r.s.ops++
	if err != nil {
		r.s.fail("%s: %v", st.name, err)
		return nil, t0, d, fmt.Errorf("%s over the wire: %w", st.name, err)
	}
	if r.checkRef && digestRows(res.Rows, st.ordered) != st.ref {
		r.s.fail("%s: result differs from the set-up reference", st.name)
	}
	return res, t0, d, nil
}

// inProcess replays statement i (statement id `id`) inside the process: once
// plain, as the child that leaves the round trip's self time to server and
// wire; once profiled, for the phase and operator spans; and its result once
// through the frame encoder and decoder.
func (r *replay) inProcess(ctx context.Context, i, id int) error {
	st := &r.in.stmts[i]
	var m0, m1 runtime.MemStats
	var rows [][]any
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := r.in.db.QueryStreamSQL(ctx, st.sql, func(part [][]any) error {
		rows = append(rows, part...)
		return nil
	})
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s in-process: %w", st.name, err)
	}
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.inProc[i] = append(r.inProc[i], ms(d))
	r.tr.add("core.inprocess", r.roundTripSpan[id], id, t0, d, nil)

	t0 = time.Now()
	prof, err := r.in.db.QueryStreamProfileSQL(ctx, st.sql, func([][]any) error { return nil })
	if err != nil {
		return fmt.Errorf("%s profiled: %w", st.name, err)
	}
	root := r.tr.add("replay.profiled", -1, id, t0, time.Since(t0), map[string]any{"cache_hit": prof.CacheHit})
	// The phases ran back to back from t0: compile phases (none on a plan
	// cache hit), then rewrite, then execute.
	var compile, rewrite, execute time.Duration
	for _, ph := range prof.Phases {
		switch ph.Name {
		case "rewrite":
			rewrite += ph.Nanos
		case "execute":
			execute += ph.Nanos
		default:
			compile += ph.Nanos
		}
	}
	if compile > 0 {
		r.tr.add("sql.compile", root, id, t0, compile, map[string]any{"phases": obs.FormatPhases(prof.Phases)})
	}
	r.tr.add("rewriter.rewrite", root, id, t0.Add(compile), rewrite, nil)
	execStart := t0.Add(compile + rewrite)
	ex := r.tr.add("core.execute", root, id, execStart, execute, nil)
	r.execPhase += execute
	for _, op := range prof.Operators {
		r.tr.add("op:"+op.Label, ex, id, execStart, op.Nanos/time.Duration(max(op.Streams, 1)),
			map[string]any{"rows": op.Rows, "streams": op.Streams, "inclusive_ns_all_streams": op.Nanos})
		if k := opKind(op.Label); k != "" {
			r.opMs[k] += ms(op.Nanos)
		}
	}

	frame := rows[:min(len(rows), frameRows)] // the server cuts a result into frames of this many rows
	var buf bytes.Buffer
	t0 = time.Now()
	if err := server.WriteFrame(&buf, &server.Response{Type: server.RespRows, Rows: frame}); err != nil {
		return err
	}
	r.tr.add("server.frame_encode", -1, id, t0, time.Since(t0), map[string]any{"rows": len(frame), "bytes": buf.Len()})
	t0 = time.Now()
	if err := decodeFrame(&buf); err != nil {
		return err
	}
	r.tr.add("server.frame_decode", -1, id, t0, time.Since(t0), nil)
	return nil
}

// tracedRun replays passes of the statements with spans — at least
// minTracePasses, and as many as fit the window — each paired with an
// untraced pass (the base of obs.trace_overhead_ratio), and returns the
// traced per-layer metrics. Counts are per pass.
func tracedRun(ctx context.Context, in *instance, window time.Duration, checkRef bool, outPath string) (map[string]float64, *samples, error) {
	c, err := server.Dial(in.addr)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	n := len(in.stmts)
	r := &replay{in: in, c: c, tr: newTracer(), s: newSamples(n), checkRef: checkRef,
		opMs: map[string]float64{}, roundTrips: make([][]float64, n), inProc: make([][]float64, n)}

	var untraced, traced []float64
	plainPass := func() error {
		for i := range in.stmts {
			_, _, d, err := r.roundTrip(ctx, i)
			if err != nil {
				return err
			}
			untraced = append(untraced, ms(d))
		}
		return nil
	}
	// tracedPass records the round-trip spans; the counts cover only it.
	tracedPass := func(first int) error {
		before := readCounters(in)
		for i := range in.stmts {
			res, t0, d, err := r.roundTrip(ctx, i)
			if err != nil {
				return err
			}
			r.roundTripSpan = append(r.roundTripSpan, r.tr.add("client.roundtrip", -1, first+i, t0, d, map[string]any{
				"stmt": in.stmts[i].name, "rows": len(res.Rows), "queue_us": res.Queue.Microseconds()}))
			traced = append(traced, ms(d))
			r.roundTrips[i] = append(r.roundTrips[i], ms(d))
			r.queueTotal += res.Queue
		}
		for k, after := range readCounters(in) {
			r.counts[k] += after - before[k]
		}
		return nil
	}
	passes := 0
	for deadline := time.Now().Add(window); passes < minTracePasses || time.Now().Before(deadline); passes++ {
		first := len(r.roundTripSpan)
		// Which of the two runs first alternates, so that neither always
		// inherits the other's warm caches.
		var err error
		if passes%2 == 0 {
			if err = plainPass(); err == nil {
				err = tracedPass(first)
			}
		} else if err = tracedPass(first); err == nil {
			err = plainPass()
		}
		if err != nil {
			return nil, r.s, err
		}
		for i := range in.stmts {
			if err := r.inProcess(ctx, i, first+i); err != nil {
				return nil, r.s, err
			}
		}
	}
	if outPath != "" {
		if err := r.tr.writeChrome(outPath); err != nil {
			return nil, r.s, err
		}
	}
	m := r.metrics(float64(passes))
	m["obs.trace_overhead_ratio"] = ratio(median(traced), median(untraced))
	return m, r.s, nil
}

// metrics turns what n traced passes accumulated into the per-layer numbers.
func (r *replay) metrics(n float64) map[string]float64 {
	stmts := n * float64(len(r.in.stmts))
	count := func(k int) float64 { return float64(r.counts[k]) }
	m := map[string]float64{
		"colstore.blocks_read":          count(cBlocksRead) / n,
		"colstore.bytes_decoded":        count(cBytesDecoded) / n,
		"colstore.bytes_materialized":   count(cBytesMaterialized) / n,
		"colstore.spans_pruned":         count(cSpansPruned) / n,
		"colstore.block_cache_hit_rate": ratio(count(cCacheHits), count(cCacheHits)+count(cBlocksRead)),
		"mpi.remote_bytes":              count(cRemoteBytes) / n,
		"mpi.remote_msgs":               count(cRemoteMsgs) / n,
		"sql.plan_cache_hit_rate":       ratio(count(cPlanHits), count(cPlanHits)+count(cPlanMisses)),
		"core.exec_ms":                  ms(r.execPhase) / n,
		"core.alloc_kb_per_stmt":        float64(r.allocBytes) / 1024 / stmts,
		"core.allocs_per_stmt":          float64(r.mallocs) / stmts,
		"server.queue_us":               float64(r.queueTotal.Microseconds()) / stmts,
		// Warm scans read nothing from hdfs: no byte came from a remote node.
		"hdfs.local_read_share": 1,
	}
	if read := count(cLocalRead) + count(cRemoteRead); read > 0 {
		m["hdfs.local_read_share"] = count(cLocalRead) / read
	}
	for _, k := range []string{"exec.scan_ms", "exec.aggr_ms", "exec.join_ms", "exec.sort_ms", "exec.xchg_ms", "mpp.dxchg_ms"} {
		m[k] = r.opMs[k] / n
	}
	// Per statement, median round trip minus median in-process replay: what
	// server, wire and client decode add. Summed over the statements of a pass.
	var wire, total float64
	for i, rt := range r.roundTrips {
		wire += max(median(rt)-median(r.inProc[i]), 0)
		total += median(rt)
	}
	m["server.wire_ms"] = wire
	m["server.wire_share"] = ratio(wire, total)
	return m
}

// decodeFrame reads one frame back the way the client's read loop does:
// ReadFrame, then a JSON decode that keeps integers exact.
func decodeFrame(r io.Reader) error {
	payload, err := server.ReadFrame(r, 0)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var resp server.Response
	return dec.Decode(&resp)
}
