package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vectorh/internal/server"
)

// execFn runs statement i of a workload and streams its result.
type execFn func(ctx context.Context, i int, yield func([]server.ColDesc, [][]any) error) error

// samples is what one closed-loop session measured. A failed op (error,
// refusal, or result mismatch) is counted and contributes no latency.
type samples struct {
	lat, first  [][]time.Duration // per statement
	ops, failed int
	busy        time.Duration // time inside statements; the rest is client-side checking
	passRates   []float64     // per pass: statements / time inside them, in stmt/s
	failures    []string      // first few, for the report
}

func newSamples(nStmts int) *samples {
	return &samples{lat: make([][]time.Duration, nStmts), first: make([][]time.Duration, nStmts)}
}

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// measure times one statement from "handed to the client" to "last rows
// frame decoded and collected", then checks the result outside the timed
// region: against want when given, else only for being non-empty (the
// refresh workload's answers move with every DML chunk and are verified
// against the oracles at the end).
func (s *samples) measure(ctx context.Context, exec execFn, i int, st *stmt, want *digest) {
	var rows [][]any
	var first time.Duration
	t0 := time.Now()
	err := exec(ctx, i, func(_ []server.ColDesc, part [][]any) error {
		if len(part) > 0 {
			if rows == nil {
				first = time.Since(t0)
			}
			rows = append(rows, part...)
		}
		return nil
	})
	lat := time.Since(t0)
	s.ops++
	s.busy += lat
	switch {
	case err != nil:
		s.fail("%s: %v", st.name, err)
		return
	case want != nil:
		if got := digestRows(rows, st.ordered); got != *want {
			s.fail("%s: result %v, reference %v", st.name, got, *want)
			return
		}
	case len(rows) == 0:
		s.fail("%s: empty result", st.name)
		return
	}
	if rows == nil {
		first = lat
	}
	s.lat[i] = append(s.lat[i], lat)
	s.first[i] = append(s.first[i], first)
}

func (s *samples) merge(o *samples) {
	for i := range s.lat {
		s.lat[i] = append(s.lat[i], o.lat[i]...)
		s.first[i] = append(s.first[i], o.first[i]...)
	}
	s.ops += o.ops
	s.failed += o.failed
	s.busy += o.busy
	s.passRates = append(s.passRates, o.passRates...)
	s.failures = append(s.failures, o.failures...)
}

// addOps counts another phase's statements and failures in s without mixing
// its latencies in.
func (s *samples) addOps(o *samples) {
	s.ops += o.ops
	s.failed += o.failed
	s.failures = append(s.failures, o.failures...)
}

// endPass closes a pass that began when the session had done ops0 statements
// in busy0.
func (s *samples) endPass(ops0 int, busy0 time.Duration) {
	s.passRates = append(s.passRates, ratio(float64(s.ops-ops0), (s.busy-busy0).Seconds()))
}

// throughput is the median pass rate: the rate the closed loop sustains, not
// pulled down by the one pass a machine hiccup stretched.
func (s *samples) throughput() float64 { return median(s.passRates) }

func (s *samples) count() int {
	n := 0
	for _, l := range s.lat {
		n += len(l)
	}
	return n
}

// latencyGeomeanMs is the geometric mean over statements of each
// statement's median latency.
func latencyGeomeanMs(per [][]time.Duration) float64 {
	meds := make([]float64, 0, len(per))
	for _, l := range per {
		if len(l) > 0 {
			meds = append(meds, median(durationsMs(l)))
		}
	}
	return geomean(meds)
}

// tailRatio is the p90 of (latency / that statement's median), pooled over
// all statements. Every workload collects > 300 samples per run, so dozens
// lie beyond it; p95 was tried and its run-to-run spread on cold_scan (23 %)
// left no room under the contract's widest bound.
func tailRatio(per [][]time.Duration) float64 {
	var pooled []float64
	for _, l := range per {
		if len(l) == 0 {
			continue
		}
		xs := durationsMs(l)
		med := median(xs)
		for _, x := range xs {
			pooled = append(pooled, x/med)
		}
	}
	return quantile(pooled, 0.90)
}

// sqlText executes statements as SQL text through Client.QueryStream.
func sqlText(c *server.Client, stmts []stmt) execFn {
	return func(ctx context.Context, i int, yield func([]server.ColDesc, [][]any) error) error {
		return c.QueryStream(ctx, stmts[i].sql, yield)
	}
}

// runPasses repeats whole passes over the statements until the deadline;
// order returns the statement order of the next pass.
func runPasses(ctx context.Context, exec execFn, stmts []stmt, order func() []int, deadline time.Time) *samples {
	s := newSamples(len(stmts))
	for time.Now().Before(deadline) {
		ops0, busy0 := s.ops, s.busy
		for _, i := range order() {
			s.measure(ctx, exec, i, &stmts[i], &stmts[i].ref)
		}
		s.endPass(ops0, busy0)
	}
	return s
}

func inOrder(n int) func() []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return func() []int { return idx }
}

// measureSingle is the closed loop of the single-session workloads: one
// connection, SQL text, the next statement sent when the previous reply is
// complete.
func measureSingle(ctx context.Context, in *instance, window time.Duration) (*samples, float64, error) {
	c, err := server.Dial(in.addr)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	s := runPasses(ctx, sqlText(c, in.stmts), in.stmts, inOrder(len(in.stmts)), time.Now().Add(window))
	return s, s.throughput(), nil
}

// measureSessions runs maxSessions concurrent closed-loop sessions, each on
// its own connection with the statements registered as wire-level prepared
// statements, each pass in an order shuffled from the seed. Throughput is the
// sum of the sessions' rates.
func measureSessions(ctx context.Context, in *instance, window time.Duration, seed int64) (*samples, float64, error) {
	type session struct {
		c     *server.Client
		exec  execFn
		order func() []int
		out   *samples
	}
	sessions := make([]*session, maxSessions)
	defer func() {
		for _, ss := range sessions {
			if ss != nil {
				ss.c.Close()
			}
		}
	}()
	for k := range sessions {
		c, err := server.Dial(in.addr)
		if err != nil {
			return nil, 0, err
		}
		sessions[k] = &session{c: c}
		prepared := make([]*server.PreparedStmt, len(in.stmts))
		for i, st := range in.stmts {
			if prepared[i], err = c.Prepare(st.sql); err != nil {
				return nil, 0, fmt.Errorf("prepare %s: %w", st.name, err)
			}
		}
		sessions[k].exec = func(ctx context.Context, i int, yield func([]server.ColDesc, [][]any) error) error {
			return prepared[i].QueryStream(ctx, nil, yield)
		}
		rng := rand.New(rand.NewSource(seed*int64(maxSessions) + int64(k)))
		idx := inOrder(len(in.stmts))()
		sessions[k].order = func() []int {
			rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			return idx
		}
	}
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, ss := range sessions {
		wg.Add(1)
		go func(ss *session) {
			defer wg.Done()
			ss.out = runPasses(ctx, ss.exec, in.stmts, ss.order, deadline)
		}(ss)
	}
	wg.Wait()
	all := newSamples(len(in.stmts))
	var qps float64
	for _, ss := range sessions {
		all.merge(ss.out)
		qps += ss.out.throughput()
	}
	return all, qps, nil
}
