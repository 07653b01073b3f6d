package core

import (
	"context"
	"fmt"

	"vectorh/internal/colstore"
	"vectorh/internal/exec"
	"vectorh/internal/pdt"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// The engine implements rewriter.ScanProvider: MScan operators read
// compressed column blocks (with per-kind MinMax skipping) and merge the
// partition's PDT layers positionally — every query sees the latest
// committed state without the scan touching keys (§6).
//
// Late materialization: when the rewriter pushes a filtering predicate set
// into the scan, each span decodes only the predicate columns first,
// evaluates the conjuncts vectorized into a selection vector, and drops
// dead spans without ever touching the payload columns; surviving rows
// gather the payload columns through the scanner's column-subset API. Spans
// touched by PDT deltas fall back to decode-all + merge, with the predicate
// re-evaluated on the merged rows (and on PDT tail inserts), since deltas
// can flip a row's qualification either way.
//
// Concurrency: a scan pins one refcounted metadata generation plus the PDT
// masters in a single critical section at Open (the same lock writers hold
// while publishing a new generation and resetting PDTs), so the block image
// and the delta image always describe the same moment. Scans therefore run
// freely alongside a concurrent DML writer.

// ResponsibleParts implements rewriter.ScanProvider.
func (e *Engine) ResponsibleParts(table string, node int) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[table]
	if !ok || node >= len(e.active) {
		return nil
	}
	name := e.active[node]
	var out []int
	for p, part := range t.Parts {
		if part.Responsible == name {
			out = append(out, p)
		}
	}
	return out
}

// tableAndNode resolves a table and the name of the executing node slot
// under one catalog read lock.
func (e *Engine) tableAndNode(table string, node int) (*Table, string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[table]
	var nodeName string
	if node >= 0 && node < len(e.active) {
		nodeName = e.active[node]
	}
	return t, nodeName, ok
}

// PartitionScan implements rewriter.ScanProvider: the query's context is
// threaded into the storage scan so a deadline or client cancel stops block
// reads at batch granularity.
func (e *Engine) PartitionScan(ctx context.Context, spec rewriter.ScanSpec, partIdx, node int) (exec.Operator, error) {
	t, nodeName, ok := e.tableAndNode(spec.Table, node)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", spec.Table)
	}
	if partIdx < 0 || partIdx >= len(t.Parts) {
		return nil, fmt.Errorf("core: %s has no partition %d", spec.Table, partIdx)
	}
	return e.newMScan(ctx, t, t.Parts[partIdx], spec, nodeName)
}

// ReplicatedScan implements rewriter.ScanProvider.
func (e *Engine) ReplicatedScan(ctx context.Context, spec rewriter.ScanSpec, node int) (exec.Operator, error) {
	t, nodeName, ok := e.tableAndNode(spec.Table, node)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", spec.Table)
	}
	if len(t.Parts) == 0 {
		return nil, fmt.Errorf("core: table %q has no partitions", spec.Table)
	}
	return e.newMScan(ctx, t, t.Parts[0], spec, nodeName)
}

// mscan streams one partition: column blocks merged through the Read- and
// Write-PDT layers, with MinMax-skipped ranges, scan-side predicate
// filtering, and the PDT tail inserts.
type mscan struct {
	eng    *Engine
	part   *Partition
	node   string
	cols   []string
	colIdx []int
	pred   *rewriter.ScanPredSet
	ctx    context.Context

	// codes enables compressed-domain execution for this scan (scanner
	// serves dictionary-code vectors, predicates verdict against per-block
	// dictionaries and PFOR frame bounds); codeSpace additionally requires
	// the pushed predicate set to be marked legal for it.
	codes     bool
	codeSpace bool

	// Acquired at Open in one critical section, released at Close.
	gen      *metaGen
	meta     *colstore.PartitionMeta
	readPDT  *pdt.PDT
	writePDT *pdt.PDT

	sc     *colstore.Scanner
	readM  *pdt.Merger
	writeM *pdt.Merger
	stage  int // 0=blocks, 1=read tail, 2=write tail, 3=done

	// Compiled filtering state (nil/empty for skip-only or no predicate).
	filters   []rowFilter
	leadSlots []int  // predicate column slots: the only columns stage 0 decodes eagerly
	skip      []bool // per-span verdict scratch: filters proven all-pass, kernels elided

	spansPruned int64 // spans dropped before any payload column was decoded

	// IO totals retained at Close (after folding into the engine-wide
	// counters) so EXPLAIN ANALYZE can attribute blocks and bytes to this
	// scan operator after the query has finished.
	io ScanIO
}

// ScanIO is the per-scan-operator IO attribution reported by EXPLAIN
// ANALYZE: what this one scan read, decoded, skipped and hit in cache.
type ScanIO struct {
	BlocksRead        int64
	BytesDecoded      int64
	CacheHits         int64
	SpansPruned       int64
	BytesSkipped      int64 // compressed bytes never decoded (pruned blocks)
	BytesMaterialized int64 // value bytes produced into execution memory
}

// ScanIOStats returns the scan's retained IO totals; valid once the scan is
// closed (the engine closes every operator before reading profiles).
func (m *mscan) ScanIOStats() ScanIO { return m.io }

func (e *Engine) newMScan(ctx context.Context, t *Table, part *Partition, spec rewriter.ScanSpec, node string) (exec.Operator, error) {
	schema := t.Info.Schema
	colIdx := make([]int, len(spec.Cols))
	for i, c := range spec.Cols {
		colIdx[i] = schema.Index(c)
		if colIdx[i] < 0 {
			return nil, fmt.Errorf("core: no column %q in %s", c, t.Info.Name)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &mscan{eng: e, part: part, node: node, cols: spec.Cols, colIdx: colIdx, pred: spec.Pred, ctx: ctx, codes: spec.Codes}, nil
}

// Open implements exec.Operator. It pins the partition's storage metadata
// generation and snapshots the PDT masters atomically: writers publish new
// block directories and reset PDTs under the same partition lock, so the
// two images always agree on which rows live where. Predicate compilation
// happens here too: each conjunct contributes a MinMax block predicate
// (intersected into the qualifying ranges) and — unless the set is
// skip-only — a vectorized row kernel.
// snapshotAndPin pins the partition's metadata generation and snapshots
// the PDT masters under one shared read lock: any number of scans open
// concurrently; only a writer publishing a new generation (and resetting
// PDTs) excludes them, which keeps the block image and delta image of one
// scan consistent.
func (m *mscan) snapshotAndPin() (read, write *pdt.PDT, err error) {
	m.part.mu.RLock()
	defer m.part.mu.RUnlock()
	read, write, err = m.eng.mgr.Snapshot(m.part.Key)
	if err != nil {
		return nil, nil, err
	}
	m.gen = m.part.pinLocked()
	return read, write, nil
}

func (m *mscan) Open() error {
	read, write, err := m.snapshotAndPin()
	if err != nil {
		return err
	}
	m.meta = m.gen.meta
	m.readPDT, m.writePDT = read, write

	ranges := m.meta.FullRange()
	if m.pred != nil {
		for _, p := range m.pred.Preds {
			// A predicate naming a column the partition does not store is a
			// malformed plan — surface it instead of silently scanning
			// everything.
			c, err := m.meta.Col(p.Col)
			if err != nil {
				m.releaseMeta()
				return fmt.Errorf("core: scan predicate: %w", err)
			}
			if bp := blockPredFor(p, c.Type); bp != nil {
				qr, err := m.meta.QualifyingRanges(p.Col, bp)
				if err != nil {
					m.releaseMeta()
					return err
				}
				ranges = colstore.IntersectRanges(ranges, qr)
			}
			if m.pred.SkipOnly {
				continue
			}
			slot := -1
			for i, name := range m.cols {
				if name == p.Col {
					slot = i
					break
				}
			}
			if slot < 0 {
				m.releaseMeta()
				return fmt.Errorf("core: predicate column %q is not in the scan projection of %s", p.Col, m.meta.Table)
			}
			keep, err := compileRowFilter(p, c.Type)
			if err != nil {
				m.releaseMeta()
				return err
			}
			rf := rowFilter{slot: slot, keep: keep}
			fillCodeSpace(&rf, p)
			m.filters = append(m.filters, rf)
			seen := false
			for _, s := range m.leadSlots {
				if s == slot {
					seen = true
					break
				}
			}
			if !seen {
				m.leadSlots = append(m.leadSlots, slot)
			}
		}
	}
	sc, err := colstore.NewScanner(m.eng.fs, m.meta, m.node, m.cols, ranges)
	if err != nil {
		m.releaseMeta()
		return err
	}
	sc.SetCache(m.eng.blockCache)
	sc.SetCodeExec(m.codes)
	m.sc = sc
	m.codeSpace = m.codes && m.pred != nil && m.pred.CodeSpace && len(m.filters) > 0
	if m.codeSpace {
		m.skip = make([]bool, len(m.filters))
	}
	schema := m.meta.Schema()
	m.readM = pdt.NewMerger(m.readPDT, schema, m.colIdx)
	m.writeM = pdt.NewMerger(m.writePDT, schema, m.colIdx)
	m.stage = 0
	return nil
}

// Next implements exec.Operator. The query context is checked once per
// batch: a cancelled or timed-out query stops issuing block reads
// immediately instead of draining the partition.
func (m *mscan) Next() (*vector.Batch, error) {
	for {
		if err := m.ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: scan of %s.p%d canceled: %w", m.meta.Table, m.meta.Partition, context.Cause(m.ctx))
		}
		switch m.stage {
		case 0:
			// Stage-0 clamping: only the predicate columns (lead slots)
			// bound the span, so a span rejected wholesale never positions
			// — let alone decodes — a payload block.
			lead := m.leadSlots
			if len(m.filters) == 0 {
				lead = nil // no filtering: clamp on all columns as before
			}
			start, n, err := m.sc.NextSpan(lead)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				m.stage = 1
				continue
			}
			// A span no delta touches can be served straight off the column
			// blocks; spans with deltas merge first and filter after, since
			// a modify can flip a row's qualification either way.
			needMerge := false
			if m.readM.HasDeltas() || m.writeM.HasDeltas() {
				if m.readM.HasDeltasIn(start, start+int64(n)) {
					needMerge = true
				} else {
					rid := m.readM.FirstRid(start)
					needMerge = m.writeM.HasDeltasIn(rid, rid+int64(n))
				}
			}
			if !needMerge {
				if len(m.filters) == 0 {
					b, err := m.denseSpan(start, n)
					if err != nil {
						return nil, err
					}
					return b, nil
				}
				sel, all, dead, err := m.evalSpan(start, n)
				if err != nil {
					return nil, err
				}
				if dead {
					m.spansPruned++
					continue
				}
				b, err := m.gatherSpan(start, n, sel, all)
				if err != nil {
					return nil, err
				}
				return b, nil
			}
			b, err := m.denseSpan(start, n)
			if err != nil {
				return nil, err
			}
			b1, rid1, err := m.readM.MergeRange(b, start)
			if err != nil {
				return nil, err
			}
			if b1.Len() == 0 {
				continue
			}
			b2, _, err := m.writeM.MergeRange(b1, rid1)
			if err != nil {
				return nil, err
			}
			if b2.Len() == 0 {
				continue
			}
			if out := m.filterBatch(b2); out != nil {
				return out, nil
			}
		case 1:
			m.stage = 2
			if tail, rid := m.readM.Tail(); tail != nil {
				b2, _, err := m.writeM.MergeRange(tail, rid)
				if err != nil {
					return nil, err
				}
				if b2.Len() > 0 {
					if out := m.filterBatch(b2); out != nil {
						return out, nil
					}
				}
			}
		case 2:
			m.stage = 3
			if tail, _ := m.writeM.Tail(); tail != nil && tail.Len() > 0 {
				if out := m.filterBatch(tail); out != nil {
					return out, nil
				}
			}
		default:
			return nil, nil
		}
	}
}

// denseSpan decodes all projected columns of a span as a dense batch.
func (m *mscan) denseSpan(start int64, n int) (*vector.Batch, error) {
	b := &vector.Batch{Vecs: make([]*vector.Vec, len(m.cols))}
	for i := range m.cols {
		v, err := m.sc.ColVec(i, start, n)
		if err != nil {
			return nil, err
		}
		b.Vecs[i] = v
	}
	return b, nil
}

// evalSpan runs the compiled conjuncts over a span, decoding predicate
// columns lazily (a conjunct that kills the span stops later predicate
// columns from being decoded at all).
//
// When the predicate set is marked CodeSpace, a verdict phase runs first,
// entirely on compression metadata: integer conjuncts compare against block
// value bounds (MinMax summaries or PFOR frame bounds) and string conjuncts
// against the block dictionary. A dead verdict prunes the span before any
// code stream is unpacked; an all-pass verdict elides that conjunct's row
// kernel for the span.
func (m *mscan) evalSpan(start int64, n int) (sel []int32, all, dead bool, err error) {
	if m.codeSpace {
		dead, err = m.verdictSpan(start)
		if err != nil {
			return nil, false, false, err
		}
		if dead {
			return nil, false, true, nil
		}
	}
	all = true
	for fi := range m.filters {
		if m.codeSpace && m.skip[fi] {
			continue
		}
		f := &m.filters[fi]
		v, verr := m.sc.ColVec(f.slot, start, n)
		if verr != nil {
			return nil, false, false, verr
		}
		var cand []int32
		if !all {
			cand = sel
		}
		out, okAll := f.eval(v, cand)
		if all && okAll {
			continue
		}
		sel, all = out, false
		if len(sel) == 0 {
			return nil, false, true, nil
		}
	}
	return sel, all, false, nil
}

// verdictSpan runs the pre-decode verdict phase over one span, filling
// m.skip. Integer bound checks go first — they read only metadata — so a
// span dead on an integer conjunct never even opens a string block's
// dictionary.
func (m *mscan) verdictSpan(start int64) (dead bool, err error) {
	for fi := range m.filters {
		m.skip[fi] = false
	}
	for fi := range m.filters {
		f := &m.filters[fi]
		if !f.hasBounds {
			continue
		}
		lo, hi, ok := m.sc.SpanValueBounds(f.slot, start)
		if !ok {
			continue
		}
		if lo > f.hi || hi < f.lo {
			return true, nil
		}
		if f.exact && lo >= f.lo && hi <= f.hi {
			m.skip[fi] = true
		}
	}
	for fi := range m.filters {
		f := &m.filters[fi]
		if f.strEval == nil {
			continue
		}
		dict, derr := m.sc.SpanDict(f.slot, start)
		if derr != nil {
			return false, derr
		}
		if dict == nil {
			continue
		}
		_, nTrue := f.dictMask(dict)
		if nTrue == 0 {
			return true, nil
		}
		if nTrue == dict.Len() {
			m.skip[fi] = true
		}
	}
	return false, nil
}

// gatherSpan materializes the output batch of a filtered span: fully
// surviving spans decode dense (zero-copy views), partial survivors gather
// only the selected rows of every column.
func (m *mscan) gatherSpan(start int64, n int, sel []int32, all bool) (*vector.Batch, error) {
	b := &vector.Batch{Vecs: make([]*vector.Vec, len(m.cols))}
	for i := range m.cols {
		var v *vector.Vec
		var err error
		if all {
			v, err = m.sc.ColVec(i, start, n)
		} else {
			v, err = m.sc.GatherCol(i, start, sel)
		}
		if err != nil {
			return nil, err
		}
		b.Vecs[i] = v
	}
	vector.CheckBatch(b)
	return b, nil
}

// filterBatch applies the compiled conjuncts to a dense merged or tail
// batch, returning nil when no row survives (callers continue the scan
// loop). Without filters the batch passes through.
func (m *mscan) filterBatch(b *vector.Batch) *vector.Batch {
	if len(m.filters) == 0 {
		return b
	}
	var sel []int32
	all := true
	for fi := range m.filters {
		f := &m.filters[fi]
		var cand []int32
		if !all {
			cand = sel
		}
		out, okAll := f.eval(b.Vecs[f.slot], cand)
		if all && okAll {
			continue
		}
		sel, all = out, false
		if len(sel) == 0 {
			return nil
		}
	}
	if all {
		return b
	}
	out := &vector.Batch{Vecs: b.Vecs, Sel: sel}
	vector.CheckBatch(out)
	return out
}

func (m *mscan) releaseMeta() {
	if m.gen != nil {
		m.part.release(m.gen, m.eng.fs)
		m.gen, m.meta = nil, nil
	}
}

// Close implements exec.Operator: it releases the scanner's decoded block
// cache and the merger snapshots so a finished (or abandoned) scan does not
// pin column blocks and PDT entry lists in memory, unpins the metadata
// generation (triggering deferred deletion of superseded files once the
// last reader of a retired generation is gone), and folds the scanner's IO
// counters into the engine-wide scan statistics.
func (m *mscan) Close() error {
	if m.sc != nil {
		st := m.sc.Stats()
		m.eng.scanBlocksRead.Add(st.BlocksRead)
		m.eng.scanBytesDecoded.Add(st.BytesDecoded)
		m.eng.scanCacheHits.Add(st.CacheHits)
		m.eng.scanSpansPruned.Add(m.spansPruned)
		m.eng.scanBytesSkipped.Add(st.BytesSkipped)
		m.eng.scanBytesMaterialized.Add(st.BytesMaterialized)
		m.io.BlocksRead += st.BlocksRead
		m.io.BytesDecoded += st.BytesDecoded
		m.io.CacheHits += st.CacheHits
		m.io.SpansPruned += m.spansPruned
		m.io.BytesSkipped += st.BytesSkipped
		m.io.BytesMaterialized += st.BytesMaterialized
		m.spansPruned = 0
		m.sc.Close()
		m.sc = nil
	}
	m.readM, m.writeM = nil, nil
	m.readPDT, m.writePDT = nil, nil
	m.releaseMeta()
	debugCheckUnpinned(m)
	m.stage = 3
	return nil
}
