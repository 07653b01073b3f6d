// Package exec implements the vectorized query operators of the engine
// (§2, §5 of the paper): Select with selection vectors, Project, hash
// aggregation (partial and final), hash joins and, for co-ordered clustered
// tables, merge joins (inner, left outer, semi, anti), sort, top-N, and the
// local Xchg operator family that encapsulates multi-core parallelism so
// every other operator can stay parallelism-unaware (the Volcano model the
// paper builds its MPP parallelism on).
//
// Batches alias. The output of Select, Limit and every join may hold its
// input's vectors (a join's its probe batch's, under a selection), so no
// operator writes into a vector it received: what it makes goes into vectors
// of its own. An operator that keeps a batch past its producer's next Next
// (a sort, a hash build, a merge join's window, a queueing Xchg port) copies
// it, or owns it by contract: a producer never changes a batch it handed
// downstream. TestOperatorsLeaveInputsUnwritten checks the rule.
//
// One exception to parallelism-unawareness is shared on purpose: a hash
// join's table. It belongs to a BuildSide, not to a join; the HashJoins of a
// replicated build on one node are its users. The first user's Next builds
// it while the others wait; from then until the last user's Close it is
// frozen, every user probes it at once with scratch of its own, and none
// writes it. The last Close closes the build operator and drops the table
// and the build columns. A paired join's BuildSide has one user.
//
// A hash join's String build columns leave it as dictionary codes: each
// output vector's dictionary references the frozen build column's strings,
// so the output keeps that column alive past the build side's last Close,
// for as long as anything holds the batch. Nothing writes the dictionary
// either.
package exec

import (
	"sync/atomic"
	"time"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// Operator is the Volcano iterator contract: Open, repeated Next until a nil
// batch, Close.
type Operator interface {
	Open() error
	Next() (*vector.Batch, error)
	Close() error
}

// --- sources ---

// BatchSource replays a fixed list of batches (tests, PDT tails, receiver
// buffers).
type BatchSource struct {
	Batches []*vector.Batch
	pos     int
}

// Open implements Operator.
func (s *BatchSource) Open() error { s.pos = 0; return nil }

// Next implements Operator.
func (s *BatchSource) Next() (*vector.Batch, error) {
	for s.pos < len(s.Batches) {
		b := s.Batches[s.pos]
		s.pos++
		if b != nil && b.Len() > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (s *BatchSource) Close() error { return nil }

// FuncSource adapts a pull function to an Operator.
type FuncSource struct {
	NextFn  func() (*vector.Batch, error)
	CloseFn func() error
}

// Open implements Operator.
func (s *FuncSource) Open() error { return nil }

// Next implements Operator.
func (s *FuncSource) Next() (*vector.Batch, error) { return s.NextFn() }

// Close implements Operator.
func (s *FuncSource) Close() error {
	if s.CloseFn != nil {
		return s.CloseFn()
	}
	return nil
}

// --- select ---

// Select filters its child with a boolean predicate, producing selection
// vectors instead of copying data.
type Select struct {
	Child Operator
	Pred  expr.Expr

	filter *expr.Filter // this instance's compiled predicate
}

// Open implements Operator.
func (s *Select) Open() (err error) {
	if s.filter, err = expr.CompileFilter(s.Pred); err != nil {
		return err
	}
	return s.Child.Open()
}

// Next implements Operator.
func (s *Select) Next() (*vector.Batch, error) {
	for {
		b, err := s.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		out, err := s.filter.Select(b)
		if err != nil {
			return nil, err
		}
		if out != nil {
			vector.CheckBatch(out)
			return out, nil
		}
	}
}

// Close implements Operator.
func (s *Select) Close() error { return s.Child.Close() }

// --- project ---

// Project evaluates expressions into a dense output batch. Its vectors leave
// the operator, so each is taken from the program, never its scratch.
type Project struct {
	Child Operator
	Exprs []expr.Expr

	prog *expr.Program
}

// Open implements Operator.
func (p *Project) Open() (err error) {
	if p.prog, err = expr.Compile(p.Exprs...); err != nil {
		return err
	}
	return p.Child.Open()
}

// Next implements Operator.
func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if err := p.prog.Run(b); err != nil {
		return nil, err
	}
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(p.Exprs))}
	for i := range p.Exprs {
		out.Vecs[i] = p.prog.Take(i)
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// --- limit ---

// Limit passes through the first N rows. The batch that crosses N leaves
// cut: its selection truncated, or a dense batch's vectors sliced.
type Limit struct {
	Child Operator
	N     int64

	seen int64
}

// Open implements Operator.
func (l *Limit) Open() error { l.seen = 0; return l.Child.Open() }

// Next implements Operator.
func (l *Limit) Next() (*vector.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+int64(b.Len()) <= l.N {
		l.seen += int64(b.Len())
		return b, nil
	}
	take := int(l.N - l.seen)
	l.seen = l.N
	if b.Sel != nil {
		return &vector.Batch{Vecs: b.Vecs, Sel: b.Sel[:take]}, nil
	}
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(0, take)
	}
	return out, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// --- profiling wrapper (the Appendix profile of the paper) ---

// Profiled wraps an operator, measuring wall time spent inside it and the
// tuples, batches, and peak batch size it produced; used to regenerate the
// Appendix per-operator profile and to drive EXPLAIN ANALYZE. The wrapper is
// only inserted into a plan when profiling is requested, so the profiling-off
// path pays nothing — no wrapper, no timestamps, no atomics.
type Profiled struct {
	Child Operator

	// Nanos is the wall time spent in Child's Open and Next: inclusive of
	// every operator below Child, not a self time. EXPLAIN ANALYZE sums it
	// over an operator's streams.
	Nanos     int64
	TuplesOut int64
	Batches   int64
	PeakBatch int64
}

// Open implements Operator.
func (p *Profiled) Open() error {
	t0 := time.Now()
	err := p.Child.Open()
	atomic.AddInt64(&p.Nanos, int64(time.Since(t0)))
	return err
}

// Next implements Operator.
func (p *Profiled) Next() (*vector.Batch, error) {
	t0 := time.Now()
	b, err := p.Child.Next()
	atomic.AddInt64(&p.Nanos, int64(time.Since(t0)))
	if b != nil {
		n := int64(b.Len())
		atomic.AddInt64(&p.TuplesOut, n)
		atomic.AddInt64(&p.Batches, 1)
		for {
			peak := atomic.LoadInt64(&p.PeakBatch)
			if n <= peak || atomic.CompareAndSwapInt64(&p.PeakBatch, peak, n) {
				break
			}
		}
	}
	return b, err
}

// Close implements Operator.
func (p *Profiled) Close() error { return p.Child.Close() }

// Collect drains an operator into a row list (test/result helper).
func Collect(op Operator) ([][]any, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var rows [][]any
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		rows = vector.BoxRows(rows, b)
	}
}
