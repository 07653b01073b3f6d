package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase is one named span of a query's lifetime (parse, bind, decorrelate,
// joinorder, rewrite, execute).
type Phase struct {
	Name  string        `json:"name"`
	Nanos time.Duration `json:"nanos"`
}

// ScanIO is the physical work of scans: what they read, decoded, skipped,
// materialized and found in cache, and the spans they pruned or served with
// PDT deltas. One record serves every layer that counts it — a scanner, one
// scan operator in EXPLAIN ANALYZE, a query's total and the engine's
// cumulative counters behind EngineStats and /metrics.
type ScanIO struct {
	BlocksRead   int64 `json:"blocks_read,omitempty"`   // column blocks fetched and decompressed
	BytesDecoded int64 `json:"bytes_decoded,omitempty"` // compressed payload bytes decoded
	SpansPruned  int64 `json:"spans_pruned,omitempty"`  // row spans rejected before any payload column decode
	CacheHits    int64 `json:"cache_hits,omitempty"`    // blocks served from the shared decoded-block cache

	// BytesSkipped is the compressed bytes of the projection a scan never
	// decoded — blocks no span asked for (those of spans pruned on their
	// MinMax summaries or dictionaries among them), and PDICT code streams it
	// never unpacked — relative to a naive full decode of every projected
	// block.
	BytesSkipped int64 `json:"bytes_skipped,omitempty"`
	// BytesMaterialized is the estimated in-memory bytes of values a scan
	// produced. Code vectors stay in the compressed domain and do not count;
	// their dictionaries (and any fallback materialization) do.
	BytesMaterialized int64 `json:"bytes_materialized,omitempty"`

	DeltaSpans  int64 `json:"delta_spans,omitempty"`  // spans served with PDT deltas applied
	DeletedRows int64 `json:"deleted_rows,omitempty"` // stable rows of those spans the deltas delete
}

// Add adds o's counters to s.
func (s *ScanIO) Add(o ScanIO) {
	s.BlocksRead += o.BlocksRead
	s.BytesDecoded += o.BytesDecoded
	s.SpansPruned += o.SpansPruned
	s.CacheHits += o.CacheHits
	s.BytesSkipped += o.BytesSkipped
	s.BytesMaterialized += o.BytesMaterialized
	s.DeltaSpans += o.DeltaSpans
	s.DeletedRows += o.DeletedRows
}

// OpProfile is the per-operator execution profile of one plan node,
// aggregated across the operator's parallel streams.
type OpProfile struct {
	Label     string        `json:"op"`
	Nanos     time.Duration `json:"nanos"`
	Rows      int64         `json:"rows"`
	Batches   int64         `json:"batches"`
	PeakBatch int64         `json:"peak_batch"`
	Streams   int           `json:"streams,omitempty"`

	// Scan IO attribution; only set for scan operators.
	ScanIO

	// Hash join builds; only set for hash joins. BuildTables counts the
	// distinct tables the operator's streams probed (one per node for a
	// replicated build, one per stream for a paired join), BuildRows the
	// rows inserted into them. BuildUnique: every one of those tables holds
	// each key once, so each probe row matched at most one build row.
	BuildRows   int64 `json:"build_rows,omitempty"`
	BuildTables int   `json:"build_tables,omitempty"`
	BuildUnique bool  `json:"build_unique,omitempty"`
}

// Trace accumulates the phase spans and operator profiles of one query.
// All methods are nil-safe so instrumented code paths can thread a *Trace
// unconditionally and pay nothing when tracing is off.
type Trace struct {
	mu       sync.Mutex
	phases   []Phase
	ops      []OpProfile
	cacheHit bool
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// AddPhase records a completed span. Repeated spans with the same name
// accumulate (sub-blocks of a query contribute to one phase).
func (t *Trace) AddPhase(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.phases {
		if t.phases[i].Name == name {
			t.phases[i].Nanos += d
			return
		}
	}
	t.phases = append(t.phases, Phase{Name: name, Nanos: d})
}

// StartPhase starts a span and returns the function that ends it.
func (t *Trace) StartPhase(name string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.AddPhase(name, time.Since(t0)) }
}

// SetCacheHit records whether the plan came from the plan cache.
func (t *Trace) SetCacheHit(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cacheHit = hit
	t.mu.Unlock()
}

// CacheHit reports whether the plan came from the plan cache.
func (t *Trace) CacheHit() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cacheHit
}

// AddOp records one operator's aggregated execution profile.
func (t *Trace) AddOp(op OpProfile) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ops = append(t.ops, op)
	t.mu.Unlock()
}

// Phases returns a copy of the recorded spans in insertion order.
func (t *Trace) Phases() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Phase, len(t.phases))
	copy(out, t.phases)
	return out
}

// Ops returns a copy of the recorded operator profiles.
func (t *Trace) Ops() []OpProfile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]OpProfile, len(t.ops))
	copy(out, t.ops)
	return out
}

// TopOps returns the n operators with the largest cumulative wall time,
// descending.
func (t *Trace) TopOps(n int) []OpProfile {
	ops := t.Ops()
	sort.Slice(ops, func(i, j int) bool { return ops[i].Nanos > ops[j].Nanos })
	if len(ops) > n {
		ops = ops[:n]
	}
	return ops
}

// FormatPhases renders the spans as "parse=12µs bind=30µs ..." for logs and
// the REPL.
func FormatPhases(phases []Phase) string {
	var b strings.Builder
	for i, p := range phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", p.Name, p.Nanos.Round(time.Microsecond))
	}
	return b.String()
}

// FormatOps renders operator profiles like the paper's Appendix figure: per
// operator, cumulative wall time over its streams and produced tuples, at
// most topN lines in the order given (core returns them heaviest first).
func FormatOps(ops []OpProfile, topN int) string {
	var b strings.Builder
	for i, op := range ops {
		if i >= topN {
			break
		}
		fmt.Fprintf(&b, "%-60s time=%10.3fms  out=%d tuples\n",
			op.Label, float64(op.Nanos)/1e6, op.Rows)
	}
	return b.String()
}

// QueryHash is the stable FNV-64a hash of a normalized query text, rendered
// as 16 hex digits. Two invocations of the same statement (differing only in
// formatting, per sql.NormalizeSQL) share a hash, which is what makes the
// slow-query log aggregatable by statement.
func QueryHash(normalized string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(normalized); i++ {
		h ^= uint64(normalized[i])
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}
