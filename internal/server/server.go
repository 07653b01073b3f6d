package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/obs"
	"vectorh/internal/sql"
)

// Options tune a serving instance.
type Options struct {
	// MaxConcurrent bounds simultaneously *executing* queries across all
	// sessions (the admission-control semaphore). Excess queries wait in an
	// admission queue. Default 4.
	MaxConcurrent int
	// QueueWait bounds how long an admitted-pending query may wait for an
	// execution slot before it is rejected with a "server busy" error.
	// Default 10s.
	QueueWait time.Duration
	// MaxFrameBytes bounds accepted request frames. Default 8 MiB.
	MaxFrameBytes int
	// SlowQueryThreshold enables the structured slow-query log: queries (and
	// DML) at or above the threshold are written to SlowQueryLog as JSON
	// lines. Queries on a slow-logging server execute with per-operator
	// profiling on, so entries carry a phase breakdown and the top operators
	// by time. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSON lines (required to enable
	// the log; writes are serialized).
	SlowQueryLog io.Writer
}

func (o *Options) fill() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 10 * time.Second
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
}

// rowsPerFrame bounds the row count of one streamed `rows` frame.
const rowsPerFrame = 512

// metrics is the server's atomic counter block.
type metrics struct {
	sessions      atomic.Int64
	totalSessions atomic.Int64
	active        atomic.Int64
	queued        atomic.Int64
	completed     atomic.Int64
	cancelled     atomic.Int64
	failed        atomic.Int64
	rejected      atomic.Int64
	rowsServed    atomic.Int64
	openStmts     atomic.Int64
}

// Server serves SQL over the frame protocol on a TCP listener. One Server
// fronts one vectorh.DB; sessions are per-connection.
type Server struct {
	db   *vectorh.DB
	opt  Options
	slot chan struct{} // admission-control semaphore

	ctx    context.Context // closed on Close; cancels every in-flight query
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	m metrics

	started   time.Time
	slow      *obs.SlowLog
	queueHist *obs.Histogram // admission queue wait per admitted query
	execHist  *obs.Histogram // server-side execution time per query
}

// New builds a server over a database. The server registers its admission,
// session, plan-cache and latency metrics into the engine's registry, so one
// scrape (the `metrics` op or the -metrics-addr listener) covers both layers.
func New(db *vectorh.DB, opt Options) *Server {
	opt.fill()
	//lint:ctx the server owns the process-lifetime root context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:      db,
		opt:     opt,
		slot:    make(chan struct{}, opt.MaxConcurrent),
		ctx:     ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		started: time.Now(),
		slow:    obs.NewSlowLog(opt.SlowQueryLog, opt.SlowQueryThreshold),
	}
	s.registerMetrics(db.Obs())
	return s
}

// registerMetrics binds the server's counters and latency histograms into
// the engine registry. Registration is get-or-create and callback rebinding
// is latest-wins, so a fresh Server over the same DB takes over the names.
func (s *Server) registerMetrics(r *obs.Registry) {
	s.queueHist = r.Histogram("vectorh_query_queue_seconds", "Admission queue wait per admitted query.")
	s.execHist = r.Histogram("vectorh_query_exec_seconds", "Server-side execution time per query.")
	r.GaugeFunc("vectorh_sessions_active", "Open client sessions.",
		func() float64 { return float64(s.m.sessions.Load()) })
	r.CounterFunc("vectorh_sessions_total", "Sessions accepted since start.",
		func() float64 { return float64(s.m.totalSessions.Load()) })
	r.GaugeFunc("vectorh_queries_active", "Queries holding an execution slot.",
		func() float64 { return float64(s.m.active.Load()) })
	r.GaugeFunc("vectorh_queries_queued", "Queries waiting in the admission queue.",
		func() float64 { return float64(s.m.queued.Load()) })
	r.GaugeFunc("vectorh_queries_max_concurrent", "Execution slots (admission limit).",
		func() float64 { return float64(s.opt.MaxConcurrent) })
	r.CounterFunc("vectorh_queries_completed_total", "Queries completed successfully.",
		func() float64 { return float64(s.m.completed.Load()) })
	r.CounterFunc("vectorh_queries_cancelled_total", "Queries cancelled by client, deadline or shutdown.",
		func() float64 { return float64(s.m.cancelled.Load()) })
	r.CounterFunc("vectorh_queries_failed_total", "Queries failed with an error.",
		func() float64 { return float64(s.m.failed.Load()) })
	r.CounterFunc("vectorh_queries_rejected_total", "Queries rejected by admission control (queue wait exceeded).",
		func() float64 { return float64(s.m.rejected.Load()) })
	r.CounterFunc("vectorh_rows_served_total", "Result rows streamed to clients.",
		func() float64 { return float64(s.m.rowsServed.Load()) })
	r.GaugeFunc("vectorh_stmts_open", "Prepared statements across live sessions.",
		func() float64 { return float64(s.m.openStmts.Load()) })
	r.CounterFunc("vectorh_slow_queries_total", "Slow-query log entries written.",
		func() float64 { return float64(s.slow.Logged()) })
	r.CounterFunc("vectorh_plan_cache_hits_total", "Plan cache hits.",
		func() float64 { return float64(s.db.PlanCacheStats().Hits) })
	r.CounterFunc("vectorh_plan_cache_misses_total", "Plan cache misses.",
		func() float64 { return float64(s.db.PlanCacheStats().Misses) })
	r.CounterFunc("vectorh_plan_cache_evictions_total", "Plan cache LRU evictions.",
		func() float64 { return float64(s.db.PlanCacheStats().Evictions) })
	r.CounterFunc("vectorh_plan_cache_invalidations_total", "Plan cache entries dropped by epoch flushes.",
		func() float64 { return float64(s.db.PlanCacheStats().Invalidations) })
	r.GaugeFunc("vectorh_plan_cache_entries", "Compiled plans resident in the cache.",
		func() float64 { return float64(s.db.PlanCacheStats().Entries) })
	r.GaugeFunc("vectorh_process_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("vectorh_process_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	memStat := func(f func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return f(&ms)
		}
	}
	r.GaugeFunc("vectorh_process_heap_bytes", "Heap bytes in use.",
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapInuse) }))
	r.CounterFunc("vectorh_process_gc_cycles_total", "Completed GC cycles.",
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	r.CounterFunc("vectorh_process_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
	r.CounterFunc("vectorh_process_alloc_bytes_total", "Cumulative bytes allocated on the heap.",
		memStat(func(ms *runtime.MemStats) float64 { return float64(ms.TotalAlloc) }))
}

// Metrics renders the full registry (engine + server) in Prometheus text
// format.
func (s *Server) Metrics() (string, error) {
	var sb strings.Builder
	if err := s.db.Obs().WritePrometheus(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine; it returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return nil, errors.New("server: closed")
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// track registers conn and reserves a waitgroup slot for its handler; it
// reports false when the server is closing and the conn must not be served.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

// Close stops accepting, cancels every in-flight query and waits for all
// session handlers to drain — after Close returns, no server goroutine is
// left running.
func (s *Server) Close() error {
	ln, conns, first := s.beginClose()
	if !first {
		s.wg.Wait()
		return nil
	}
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// beginClose flips the closed flag and snapshots what must be torn down.
// first is false when another Close already won the race.
func (s *Server) beginClose() (ln net.Listener, conns []net.Conn, first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false
	}
	s.closed = true
	ln = s.ln
	conns = make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return ln, conns, true
}

// StatsSnapshot is a point-in-time copy of the server's own counters.
type StatsSnapshot struct {
	Sessions         int64
	TotalSessions    int64
	ActiveQueries    int64
	QueuedQueries    int64
	CompletedQueries int64
	CancelledQueries int64
	FailedQueries    int64
	RejectedQueries  int64 // admission queue timeouts
	RowsServed       int64
	OpenStatements   int64 // prepared statements across live sessions
	MaxConcurrent    int
	SlowQueries      int64 // slow-log entries written
}

// Stats returns the server's counters in process; over the wire the same
// numbers are samples of the `metrics` op.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		Sessions:         s.m.sessions.Load(),
		TotalSessions:    s.m.totalSessions.Load(),
		ActiveQueries:    s.m.active.Load(),
		QueuedQueries:    s.m.queued.Load(),
		CompletedQueries: s.m.completed.Load(),
		CancelledQueries: s.m.cancelled.Load(),
		FailedQueries:    s.m.failed.Load(),
		RejectedQueries:  s.m.rejected.Load(),
		RowsServed:       s.m.rowsServed.Load(),
		OpenStatements:   s.m.openStmts.Load(),
		MaxConcurrent:    s.opt.MaxConcurrent,
		SlowQueries:      s.slow.Logged(),
	}
}

// session is one connection's state.
type session struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex // one response frame at a time

	mu       sync.Mutex
	inflight map[int64]context.CancelCauseFunc
	stmts    map[int64]*sql.Prepared // prepared statements, keyed by client handle
	wg       sync.WaitGroup          // request workers
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.m.sessions.Add(1)
	s.m.totalSessions.Add(1)
	sess := &session{srv: s, conn: conn,
		inflight: make(map[int64]context.CancelCauseFunc),
		stmts:    make(map[int64]*sql.Prepared)}
	sess.readLoop()
	// Connection gone (or server closing): cancel whatever is still
	// running on this session and wait for the workers before closing.
	sess.mu.Lock()
	for _, cancel := range sess.inflight {
		cancel(errors.New("session closed"))
	}
	s.m.openStmts.Add(-int64(len(sess.stmts)))
	sess.stmts = nil
	sess.mu.Unlock()
	sess.wg.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.m.sessions.Add(-1)
}

func (ss *session) readLoop() {
	for {
		payload, err := ReadFrame(ss.conn, ss.srv.opt.MaxFrameBytes)
		if err != nil {
			return
		}
		var req Request
		if err := unmarshalStrictNumbers(payload, &req); err != nil {
			ss.send(&Response{Type: RespError, Err: &WireError{Msg: "bad request frame: " + err.Error()}})
			return
		}
		switch req.Op {
		case OpPing:
			ss.send(&Response{ID: req.ID, Type: RespPong})
		case OpMetrics:
			text, err := ss.srv.Metrics()
			if err != nil {
				ss.sendErr(req.ID, err)
				continue
			}
			ss.send(&Response{ID: req.ID, Type: RespMetrics, Metrics: text})
		case OpCancel:
			ss.cancelRequest(req.Target)
			ss.send(&Response{ID: req.ID, Type: RespDone})
		case OpPrepare:
			ss.handlePrepare(req)
		case OpCloseStmt:
			ss.handleCloseStmt(req)
		case OpExecute:
			// Bind in the read loop (cheap text splicing); execution itself
			// runs on a worker like any query/exec.
			bound, isSelect, err := ss.bindStmt(req)
			if err != nil {
				ss.sendErr(req.ID, err)
				continue
			}
			op := OpQuery
			if !isSelect {
				op = OpExec
			}
			ss.startWork(Request{ID: req.ID, Op: op, SQL: bound, TimeoutMs: req.TimeoutMs})
		case OpQuery, OpExec, OpExplain, OpProfile:
			ss.startWork(req)
		default:
			ss.send(&Response{ID: req.ID, Type: RespError,
				Err: &WireError{Msg: fmt.Sprintf("unknown op %q", req.Op)}})
		}
	}
}

// handlePrepare lexes and validates a '?' template and registers it under
// the client-chosen handle. Preparing is pure frontend work (no plan is
// built), so it bypasses admission control.
func (ss *session) handlePrepare(req Request) {
	p, err := sql.Prepare(req.SQL)
	if err != nil {
		ss.sendErr(req.ID, err)
		return
	}
	replaced, ok := ss.storeStmt(req.Stmt, p)
	if !ok {
		ss.sendErr(req.ID, errors.New("session closing"))
		return
	}
	if !replaced {
		ss.srv.m.openStmts.Add(1)
	}
	ss.send(&Response{ID: req.ID, Type: RespStmt, NumParams: p.NumParams()})
}

// storeStmt registers p under the client-chosen handle. ok is false when
// the session is already tearing down (its statement table is gone).
func (ss *session) storeStmt(handle int64, p *sql.Prepared) (replaced, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stmts == nil {
		return false, false
	}
	_, replaced = ss.stmts[handle]
	ss.stmts[handle] = p
	return replaced, true
}

func (ss *session) handleCloseStmt(req Request) {
	ss.mu.Lock()
	_, ok := ss.stmts[req.Stmt]
	delete(ss.stmts, req.Stmt)
	ss.mu.Unlock()
	if ok {
		ss.srv.m.openStmts.Add(-1)
	}
	ss.send(&Response{ID: req.ID, Type: RespDone})
}

// bindStmt splices an execute frame's positional parameters into the
// registered template, yielding ordinary SQL text in normalized form (the
// plan-cache key shape), plus whether it is a SELECT.
func (ss *session) bindStmt(req Request) (string, bool, error) {
	ss.mu.Lock()
	p := ss.stmts[req.Stmt]
	ss.mu.Unlock()
	if p == nil {
		return "", false, fmt.Errorf("unknown statement handle %d", req.Stmt)
	}
	bound, err := p.Bind(req.Params)
	if err != nil {
		return "", false, err
	}
	return bound, p.IsSelect(), nil
}

func (ss *session) cancelRequest(id int64) {
	ss.mu.Lock()
	cancel := ss.inflight[id]
	ss.mu.Unlock()
	if cancel != nil {
		cancel(errors.New("canceled by client"))
	}
}

// send writes one response frame (responses from concurrent workers
// interleave at frame granularity, never mid-frame).
func (ss *session) send(r *Response) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	return WriteFrame(ss.conn, r)
}

// startWork runs a query/exec/explain request in its own worker goroutine,
// so the read loop stays responsive to `cancel` (and further pipelined
// requests) while it executes.
func (ss *session) startWork(req Request) {
	ctx, cancelCause := context.WithCancelCause(ss.srv.ctx)
	cancel := cancelCause
	if req.TimeoutMs > 0 {
		tctx, tcancel := context.WithDeadlineCause(ctx,
			time.Now().Add(time.Duration(req.TimeoutMs)*time.Millisecond),
			errors.New("query deadline exceeded"))
		ctx = tctx
		cancel = func(cause error) {
			cancelCause(cause)
			tcancel()
		}
	}
	ss.mu.Lock()
	if _, dup := ss.inflight[req.ID]; dup {
		ss.mu.Unlock()
		cancel(nil)
		ss.send(&Response{ID: req.ID, Type: RespError,
			Err: &WireError{Msg: fmt.Sprintf("request id %d already in flight", req.ID)}})
		return
	}
	ss.inflight[req.ID] = cancel
	ss.wg.Add(1)
	ss.mu.Unlock()
	go func() {
		defer func() {
			ss.mu.Lock()
			delete(ss.inflight, req.ID)
			ss.mu.Unlock()
			cancel(nil)
			ss.wg.Done()
		}()
		ss.runRequest(ctx, req)
	}()
}

// admit acquires an execution slot, queueing up to QueueWait.
func (ss *session) admit(ctx context.Context) error {
	srv := ss.srv
	select {
	case srv.slot <- struct{}{}:
		return nil
	default:
	}
	srv.m.queued.Add(1)
	defer srv.m.queued.Add(-1)
	timer := time.NewTimer(srv.opt.QueueWait)
	defer timer.Stop()
	select {
	case srv.slot <- struct{}{}:
		return nil
	case <-timer.C:
		srv.m.rejected.Add(1)
		return fmt.Errorf("server busy: %d queries executing, queue wait exceeded %v",
			srv.opt.MaxConcurrent, srv.opt.QueueWait)
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (ss *session) runRequest(ctx context.Context, req Request) {
	if req.Op == OpExplain {
		// Explain only plans; it bypasses admission control.
		plan, err := ss.srv.db.ExplainSQL(req.SQL)
		if err != nil {
			ss.sendErr(req.ID, err)
			return
		}
		ss.send(&Response{ID: req.ID, Type: RespPlan, Plan: plan})
		return
	}
	queueStart := time.Now()
	if err := ss.admit(ctx); err != nil {
		ss.sendErr(req.ID, err)
		return
	}
	queueWait := time.Since(queueStart)
	ss.srv.queueHist.Observe(queueWait)
	defer func() { <-ss.srv.slot }()
	ss.srv.m.active.Add(1)
	defer ss.srv.m.active.Add(-1)

	// Each op hands back its done frame instead of sending it: the counters
	// move first, so a client that has seen "done" finds its query counted.
	start := time.Now()
	var done *Response
	var err error
	switch req.Op {
	case OpQuery:
		done, err = ss.runQuery(ctx, req, queueWait)
	case OpProfile:
		done, err = ss.runProfile(ctx, req)
	case OpExec:
		var affected int64
		affected, err = ss.srv.db.ExecSQL(ctx, req.SQL)
		if err == nil {
			elapsed := time.Since(start)
			ss.srv.slowLogExec(req.SQL, elapsed, queueWait, affected)
			done = &Response{ID: req.ID, Type: RespDone, Affected: affected,
				ElapsedUs: elapsed.Microseconds(),
				QueueUs:   queueWait.Microseconds(),
				ExecUs:    elapsed.Microseconds()}
		}
	}
	ss.srv.execHist.Observe(time.Since(start))
	if err != nil {
		if ctx.Err() != nil {
			ss.srv.m.cancelled.Add(1)
		} else {
			ss.srv.m.failed.Add(1)
		}
		ss.sendErr(req.ID, err)
		return
	}
	ss.srv.m.completed.Add(1)
	ss.send(done)
}

// queryHash returns the slow-log hash of a statement: normalized token text
// when it lexes as a SELECT (so literal-differing invocations aggregate),
// raw text otherwise.
func queryHash(src string) string {
	if norm, ok := sql.NormalizeSQL(src); ok {
		return obs.QueryHash(norm)
	}
	return obs.QueryHash(src)
}

// slowLogExec records a DML statement in the slow-query log (no operator
// breakdown — DML does not run under the profiled query path).
func (s *Server) slowLogExec(src string, elapsed, queueWait time.Duration, affected int64) {
	if !s.slow.Enabled() {
		return
	}
	s.slow.Record(elapsed, obs.SlowEntry{
		Hash:    queryHash(src),
		QueueUs: queueWait.Microseconds(),
		Rows:    affected,
	})
}

func (ss *session) runQuery(ctx context.Context, req Request, queueWait time.Duration) (*Response, error) {
	db := ss.srv.db
	// A slow-logging server runs queries with profiling on, so a slow entry
	// can say where the time went (phase breakdown, top operators) — the
	// instrumented run costs a timing wrapper per operator stream.
	slow := ss.srv.slow
	var tr *obs.Trace
	if slow.Enabled() {
		tr = obs.NewTrace()
	}
	node, schema, err := db.CompileSQL(req.SQL, tr)
	if err != nil {
		return nil, err
	}
	if err := ss.send(&Response{ID: req.ID, Type: RespSchema, Schema: descSchema(schema)}); err != nil {
		return nil, err
	}
	start := time.Now()
	var pending [][]any
	var served int64
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		n := int64(len(pending))
		if err := ss.send(&Response{ID: req.ID, Type: RespRows, Rows: pending}); err != nil {
			return err
		}
		ss.srv.m.rowsServed.Add(n)
		served += n
		pending = pending[:0]
		return nil
	}
	_, err = db.Run(ctx, node, core.QueryOptions{Profile: slow.Enabled(), Trace: tr}, func(rows [][]any) error {
		pending = append(pending, rows...)
		if len(pending) >= rowsPerFrame {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if slow.Enabled() {
		entry := obs.SlowEntry{
			Hash:     queryHash(req.SQL),
			QueueUs:  queueWait.Microseconds(),
			Rows:     served,
			CacheHit: tr.CacheHit(),
		}
		entry.Phases, entry.TopOps = obs.EntryFromTrace(tr, 3)
		slow.Record(elapsed, entry)
	}
	return &Response{ID: req.ID, Type: RespDone,
		ElapsedUs: elapsed.Microseconds(),
		QueueUs:   queueWait.Microseconds(),
		ExecUs:    elapsed.Microseconds()}, nil
}

// runProfile executes a SELECT under EXPLAIN ANALYZE (full execution with
// per-operator profiling, rows discarded) and sends the rendered analysis
// as a plan frame.
func (ss *session) runProfile(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	p, err := ss.srv.db.QueryStreamProfileSQL(ctx, req.SQL, func(rows [][]any) error { return nil })
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if err := ss.send(&Response{ID: req.ID, Type: RespPlan, Plan: p.Render()}); err != nil {
		return nil, err
	}
	return &Response{ID: req.ID, Type: RespDone,
		ElapsedUs: elapsed.Microseconds(), ExecUs: elapsed.Microseconds()}, nil
}

func (ss *session) sendErr(id int64, err error) {
	ss.send(&Response{ID: id, Type: RespError, Err: toWireError(err)})
}

// toWireError preserves SQL compile positions (line:col) across the wire.
func toWireError(err error) *WireError {
	var serr *sql.Error
	if errors.As(err, &serr) {
		return &WireError{Line: serr.Pos.Line, Col: serr.Pos.Col, Msg: serr.Msg}
	}
	return &WireError{Msg: err.Error()}
}

// unmarshalStrictNumbers decodes JSON rejecting trailing garbage (a frame
// carries exactly one value).
func unmarshalStrictNumbers(data []byte, v any) error {
	dec := newNumberDecoder(data)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after frame payload")
	}
	return nil
}

// Addr formats host:port for messages.
func Addr(conn net.Conn) string {
	if conn == nil {
		return "?"
	}
	return strings.TrimPrefix(conn.RemoteAddr().String(), "tcp://")
}
