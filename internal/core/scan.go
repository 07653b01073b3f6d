package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"vectorh/internal/colstore"
	"vectorh/internal/compress"
	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/obs"
	"vectorh/internal/pdt"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// The engine implements rewriter.ScanProvider: MScan operators read
// compressed column blocks (with per-kind MinMax skipping) and merge the
// partition's PDT layers positionally — every query sees the latest
// committed state without the scan touching keys (§6).
//
// One predicate, one evaluator: when a filter sat directly on the scan the
// rewriter hands over its whole bound predicate (ScanSpec.Filter), and every
// row is decided by expr.Filter, the kernels Select runs. The scan's own work
// is around it: the predicate is split into its top-level conjuncts,
// conjuncts over the same columns are compiled as one filter with the one
// interval they imply for their column (expr.Bounds), and the parts run
// cheapest first (compilePredicate's rank). Each part's selection primitives
// read its columns in the span's own vectors at the candidates the parts
// before it kept, and a span decodes a column only when the first part that
// reads it runs. Every span is first put to a verdict on block metadata alone
// (verdictSpan, the one place MinMax summaries are read): each part's
// interval against its column's block summary — outside it the span is dead,
// and an exact interval that covers it elides the part's kernel — and, with
// ScanSpec.Codes, the block dictionaries. An interval only ever prunes or
// elides; a row is never decided on it. A dead span never touches the
// payload columns (late materialization). A span with survivors leaves one
// way: every projected column as the span's block view, the decoded predicate
// columns reused, under a selection of the survivors when some rows are
// rejected — no row is copied out of a block. With ScanSpec.Codes its string
// columns leave as dictionary codes where the block is PDICT. A span PDT
// deltas touch takes the same path, described by the partition's stacked
// merger without a row copied: its deleted rows are left out of the starting
// selection, and a column a modify sets is a patched copy of the block view
// for that span alone (in value form, since its new value need not be in the
// block's dictionary). The metadata describes the stable image, so a verdict
// on a column a modify of the span sets is taken on the span's own deltas
// too. Inserted rows — the tail, and any a transaction placed inside the
// stable image — are merged by copying and run through the same filters as
// batches of their own, in position order. Without a predicate the scan
// reads every block.
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
// Write-PDT layers, with MinMax-skipped spans, scan-side predicate
// filtering, and the PDT tail inserts.
type mscan struct {
	eng    *Engine
	table  *Table
	part   *Partition
	node   string
	spec   rewriter.ScanSpec
	colIdx []int // spec.Cols as positions in the table schema
	ctx    context.Context

	// Acquired at Open in one critical section, released at Close.
	gen      *metaGen
	meta     *colstore.PartitionMeta
	readPDT  *pdt.PDT
	writePDT *pdt.PDT

	sc     *colstore.Scanner
	merger *pdt.Merger // the Read and Write layers, stacked
	stage  int         // 0=blocks, 1=tail, 2=done

	// Stage 0 serves a span in pieces when rows are inserted inside it: rest
	// is its stable rows not served yet (restN of them), insDone that the rows
	// in front of the first were, and pending inserted rows waiting for the
	// predicate. deltas describes the piece being served.
	rest    int64
	restN   int
	insDone bool
	pending []*vector.Batch
	deltas  pdt.Span

	// The predicate as compiled at Open (empty without ScanSpec.Filter), in
	// evaluation order, and the per-span scratch of evaluating it.
	parts []predPart
	lead  []int         // predicate column slots: the only columns stage 0 clamps spans on
	pass  []bool        // per part: proven to hold for every row of the span, kernel elided
	span  []*vector.Vec // by slot: the predicate columns of the span decoded so far
	sel   []int32       // the span's surviving candidates

	// cur is the current Open's scan work: spans pruned, spans served with
	// deltas and the rows they delete are counted into it as they happen;
	// Close adds the scanner's block counters and folds it into io and the
	// engine's record.
	cur obs.ScanIO

	sorted *exec.Sort // restores ScanSpec.Ordered over a disordered partition

	// IO totals and the predicate parts' rows, retained at Close (after
	// folding the IO into the engine-wide counters) so EXPLAIN ANALYZE can
	// attribute them to this scan operator after the query has finished.
	io   obs.ScanIO
	work []obs.PartRows
}

// ScanIOStats returns the scan's retained IO totals; valid once the scan is
// closed (the engine closes every operator before reading profiles).
func (m *mscan) ScanIOStats() obs.ScanIO { return m.io }

// PredParts returns the rows each predicate part read and kept, in
// evaluation order; valid once the scan is closed.
func (m *mscan) PredParts() []obs.PartRows { return m.work }

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
	return &mscan{eng: e, table: t, part: part, node: node, spec: spec, colIdx: colIdx, ctx: ctx}, nil
}

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

// Open implements exec.Operator. It pins the partition's storage metadata
// generation and snapshots the PDT masters atomically: writers publish new
// block directories and reset PDTs under the same partition lock, so the
// two images always agree on which rows live where. The predicate is
// compiled here; spans are judged on it as they are read.
func (m *mscan) Open() (err error) {
	read, write, err := m.snapshotAndPin()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			m.releaseMeta()
		}
	}()
	m.meta = m.gen.meta
	m.readPDT, m.writePDT = read, write
	schema := m.meta.Schema()
	m.merger = pdt.NewStackedMerger(m.readPDT, m.writePDT, schema, m.colIdx)

	if m.spec.Filter != nil {
		if err := m.compilePredicate(schema); err != nil {
			return err
		}
	}
	if m.sc, err = colstore.NewScanner(m.eng.fs, m.meta, m.node, m.spec.Cols, nil); err != nil {
		return err
	}
	m.sc.SetCache(m.eng.blockCache)
	m.sc.SetCodeExec(m.spec.Codes)
	m.stage, m.restN, m.pending = 0, 0, nil
	// A write that broke the clustered order after the plan was made flagged
	// the table before it committed, so before this snapshot: sort then.
	m.sorted = nil
	if m.spec.Ordered && m.table.unordered.Load() {
		c := slices.Index(m.spec.Cols, m.table.Info.ClusteredOn)
		m.sorted = &exec.Sort{Child: &exec.FuncSource{NextFn: m.next},
			Keys: []exec.SortKey{{Expr: expr.Col(c, schema[m.colIdx[c]].Type.Kind)}}}
		return m.sorted.Open()
	}
	return nil
}

// predPart is the conjuncts of the scan's predicate that read one set of
// columns, compiled as one filter, together with what can decide a whole
// span for it before anything is unpacked, and the rows its kernels read and
// kept (PartRows.Pred is the part's text).
type predPart struct {
	obs.PartRows
	filter *expr.Filter
	slots  []int
	// bound is the interval the part implies for its one column
	// (expr.Bounds), held against the block's MinMax summary; nil when it
	// implies none.
	bound *expr.Bound
	// dictSlot is the part's one column when that is a string column (else
	// -1): the part is then a function of the value alone, and running its
	// filter over a block dictionary's values as a column decides every row of
	// the block at once. dict/dictPass remember the last dictionary seen and
	// how many of its values passed — one block serves many spans.
	dictSlot int
	dict     *compress.StrDict
	dictPass int
}

// compilePredicate splits the predicate into its top-level conjuncts, groups
// those over the same columns into one part, and orders the conjuncts of a
// part and the parts by rank: the expected cost of a verdict per input row,
// cost / (1 − pass rate). The cost is expr.Cost's (with ScanSpec.Codes string
// point tests are code lookups), the pass rate the planner's expr.Selectivity
// over the partition's MinMax value ranges. Equal ranks order by text, so the
// order is a function of the predicate set, not of how it was written.
func (m *mscan) compilePredicate(schema vector.Schema) error {
	colRange := func(slot int) (lo, hi int64, ok bool) {
		if slot >= len(m.colIdx) {
			return 0, 0, false
		}
		return m.meta.Cols[m.colIdx[slot]].NumRange()
	}
	type ranked struct {
		e     expr.Expr
		slots []int
		rank  float64
	}
	rank := func(e expr.Expr, slots []int) ranked {
		return ranked{e, slots, expr.Cost(e, m.spec.Codes) / (1 - expr.Selectivity(e, colRange))}
	}
	byRank := func(x, y ranked) int {
		if c := cmp.Compare(x.rank, y.rank); c != 0 {
			return c
		}
		return strings.Compare(x.e.String(), y.e.String())
	}
	var conj, groups []ranked
	for _, c := range expr.Conjuncts(m.spec.Filter) {
		conj = append(conj, rank(c, expr.Columns(c)))
	}
	slices.SortFunc(conj, byRank)
conjuncts:
	for _, c := range conj {
		for i := range groups {
			if slices.Equal(groups[i].slots, c.slots) {
				groups[i].e = expr.And(groups[i].e, c.e)
				continue conjuncts
			}
		}
		groups = append(groups, c)
	}
	for i, g := range groups {
		groups[i] = rank(g.e, g.slots)
	}
	slices.SortFunc(groups, byRank)
	m.parts, m.lead = make([]predPart, len(groups)), make([]int, 0, len(m.spec.Cols))
	for i, g := range groups {
		p := &m.parts[i]
		*p = predPart{PartRows: obs.PartRows{Pred: g.e.String()}, slots: g.slots, dictSlot: -1}
		var err error
		if p.filter, err = expr.CompileFilter(g.e); err != nil {
			return err
		}
		for _, s := range p.slots {
			if s >= len(m.spec.Cols) {
				return fmt.Errorf("core: predicate %s reads column %d of a %d-column scan of %s", g.e, s, len(m.spec.Cols), m.meta.Table)
			}
			if !slices.Contains(m.lead, s) {
				m.lead = append(m.lead, s)
			}
		}
		if bs := expr.Bounds(g.e); len(bs) == 1 {
			p.bound = &bs[0]
		}
		if len(p.slots) == 1 && schema[m.colIdx[p.slots[0]]].Type.Kind == vector.String {
			p.dictSlot = p.slots[0]
		}
	}
	m.pass, m.span = make([]bool, len(m.parts)), make([]*vector.Vec, len(m.spec.Cols))
	m.sel = make([]int32, 0, vector.MaxSize)
	return nil
}

// Next implements exec.Operator. The query context is checked once per
// batch: a cancelled or timed-out query stops issuing block reads
// immediately instead of draining the partition.
func (m *mscan) Next() (*vector.Batch, error) {
	if m.sorted != nil {
		return m.sorted.Next()
	}
	return m.next()
}

// next is Next in storage order.
func (m *mscan) next() (*vector.Batch, error) {
	for {
		if err := m.ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: scan of %s.p%d canceled: %w", m.meta.Table, m.meta.Partition, context.Cause(m.ctx))
		}
		if len(m.pending) > 0 {
			b := m.pending[0]
			m.pending = m.pending[1:]
			if out, err := m.filterBatch(b); out != nil || err != nil {
				return out, err
			}
			continue
		}
		switch m.stage {
		case 0:
			if m.restN == 0 {
				// Stage-0 clamping: only the predicate columns bound the span,
				// so a span rejected wholesale never positions — let alone
				// decodes — a payload block. Without a predicate (nil) every
				// column does.
				start, n, err := m.sc.NextSpan(m.lead)
				if err != nil {
					return nil, err
				}
				if n == 0 {
					m.stage = 1
					continue
				}
				m.rest, m.restN, m.insDone = start, n, false
			}
			start, n, d := m.rest, m.restN, &m.deltas
			m.merger.Span(start, n, d)
			if len(d.Ins) > 0 {
				// Rows inserted inside the stable image end the piece in front
				// of them, and are served next, on their own.
				cut := n
				for _, p := range d.Ins {
					if p > 0 || !m.insDone {
						cut = int(p)
						break
					}
				}
				if cut == 0 {
					m.insDone = true
					m.pending = m.merger.Inserted(start, m.pending[:0])
					continue
				}
				if cut < n {
					n = cut
					m.merger.Span(start, n, d)
				}
			}
			m.rest, m.restN, m.insDone = start+int64(n), m.restN-n, false
			b, err := m.filteredSpan(start, n, d)
			if err != nil {
				return nil, err
			}
			if b == nil {
				m.cur.SpansPruned++
				continue
			}
			return b, nil
		case 1:
			m.stage = 2
			m.pending = m.merger.Inserted(m.merger.StableRows(), m.pending[:0])
		default:
			return nil, nil
		}
	}
}

// filteredSpan serves the stable rows [start, start+n) with the deltas d
// describes applied: nil when no row of it is visible and satisfies the
// predicate (decided on metadata where possible, else after decoding only as
// many predicate columns as it took). Otherwise every projected column leaves
// as the span's block view (a patched copy for a column a modify sets; the
// predicate columns already decoded are reused), under a selection of the
// surviving rows when some are rejected — clean span or not, the shape
// Select emits.
func (m *mscan) filteredSpan(start int64, n int, d *pdt.Span) (*vector.Batch, error) {
	clear(m.pass)
	clear(m.span)
	if !d.Empty() {
		m.cur.DeltaSpans++
		m.cur.DeletedRows += int64(len(d.Del))
	}
	if dead, err := m.verdictSpan(start, d); dead || err != nil {
		return nil, err
	}
	sel, all, err := m.narrow(m.span, start, n, d)
	if err != nil || !all && len(sel) == 0 {
		return nil, err
	}
	b := &vector.Batch{Vecs: make([]*vector.Vec, len(m.spec.Cols))}
	for i := range m.spec.Cols {
		if i < len(m.span) && m.span[i] != nil {
			b.Vecs[i] = m.span[i]
		} else if b.Vecs[i], err = m.colVec(i, start, n, d); err != nil {
			return nil, err
		}
	}
	if !all {
		b.Sel = slices.Clone(sel)
	}
	vector.CheckBatch(b)
	return b, nil
}

// colVec is rows [start, start+n) of projection slot i with the span's
// modifies applied: the block view, or a patched copy of it.
func (m *mscan) colVec(i int, start int64, n int, d *pdt.Span) (*vector.Vec, error) {
	v, err := m.sc.ColVec(i, start, n)
	if err != nil || d == nil {
		return v, err
	}
	return d.Patch(v, m.colIdx[i]), nil
}

// narrow runs the parts not already proven to pass over n rows, each under
// the candidates the previous ones left — the first under the rows d does not
// delete — and returns the survivors (scratch, valid until the next call) or
// all = true. A nil entry of vecs is a column of the span at start not decoded
// yet: it is decoded (and patched by d) when a part first reads it, so a part
// that leaves no candidate stops the later ones' columns from being decoded at
// all. d is nil for a batch that is not a span.
func (m *mscan) narrow(vecs []*vector.Vec, start int64, n int, d *pdt.Span) (sel []int32, all bool, err error) {
	b, live, all := vector.Batch{Vecs: vecs}, n, true
	if d != nil && len(d.Del) > 0 {
		m.sel, all = m.sel[:0], false
		del := d.Del
		for r := range int32(n) {
			if len(del) > 0 && del[0] == r {
				del = del[1:]
				continue
			}
			m.sel = append(m.sel, r)
		}
		if b.Sel, live = m.sel, len(m.sel); live == 0 {
			return m.sel, false, nil
		}
	}
	for pi := range m.parts {
		if m.pass[pi] {
			continue
		}
		p := &m.parts[pi]
		for _, s := range p.slots {
			if vecs[s] == nil {
				if vecs[s], err = m.colVec(s, start, n, d); err != nil {
					return nil, false, err
				}
			}
		}
		out, err := p.filter.Match(&b, live)
		if err != nil {
			return nil, false, err
		}
		p.In, p.Out = p.In+int64(live), p.Out+int64(len(out))
		if len(out) == live {
			continue
		}
		m.sel, all = append(m.sel[:0], out...), false
		if b.Sel, live = m.sel, len(m.sel); live == 0 {
			break
		}
	}
	return m.sel, all, nil
}

// verdictSpan decides what it can of a span on block metadata alone, before
// anything is decoded. Each part's interval is held against the MinMax
// summary of its column's block: a summary the interval does not admit (or
// an interval that holds no value) makes the span dead, and an exact
// interval that covers the summary marks the part in m.pass and elides its
// kernel. With ScanSpec.Codes, a part that no value of the block's
// dictionary satisfies then makes the span dead, and one that every value
// satisfies is marked in m.pass. Summaries go first — they read only the
// block directory — so a span dead on one never opens a string block's
// dictionary. The block metadata describes the stable image, and the span's
// deltas d keep a verdict true where they only remove rows. A modify does
// not: its new value may lie outside the block's summary and in no block
// dictionary. So a span is spared when a modify of it sets the part's column
// to a value inside the interval, and a part on a column a modify of the
// span sets gets no other verdict and is left to its kernel.
func (m *mscan) verdictSpan(start int64, d *pdt.Span) (dead bool, err error) {
	for pi := range m.parts {
		p := &m.parts[pi]
		if p.bound == nil {
			continue
		}
		b, col := m.sc.SpanMeta(p.bound.Col, start), m.colIdx[p.bound.Col]
		switch {
		case !b.Admits(*p.bound):
			if !d.Sets(col, p.bound.Contains) {
				return true, nil
			}
		case p.bound.Exact && b != nil && b.HasMinMax && !d.Sets(col, nil):
			m.pass[pi] = b.NumMin >= p.bound.IntLo && b.NumMax <= p.bound.IntHi
		}
	}
	for pi := range m.parts {
		p := &m.parts[pi]
		if p.dictSlot < 0 || d.Sets(m.colIdx[p.dictSlot], nil) {
			continue
		}
		dict, err := m.sc.SpanDict(p.dictSlot, start)
		if err != nil {
			return false, err
		}
		if dict == nil || dict.Len() == 0 {
			continue
		}
		if dict != p.dict {
			m.span[p.dictSlot] = vector.FromString(dict.Values)
			out, err := p.filter.Match(&vector.Batch{Vecs: m.span}, dict.Len())
			m.span[p.dictSlot] = nil
			if err != nil {
				return false, err
			}
			p.dict, p.dictPass = dict, len(out)
		}
		if p.dictPass == 0 {
			return true, nil
		}
		m.pass[pi] = p.dictPass == dict.Len()
	}
	return false, nil
}

// filterBatch applies the predicate to a dense batch of inserted rows,
// returning nil when no row survives (callers continue the scan loop).
// Without a predicate the batch passes through.
func (m *mscan) filterBatch(b *vector.Batch) (*vector.Batch, error) {
	if b.Len() == 0 {
		return nil, nil
	}
	clear(m.pass) // verdicts describe stored blocks, not inserted rows
	sel, all, err := m.narrow(b.Vecs, 0, b.Len(), nil)
	switch {
	case err != nil || !all && len(sel) == 0:
		return nil, err
	case all:
		return b, nil
	}
	out := &vector.Batch{Vecs: b.Vecs, Sel: slices.Clone(sel)}
	vector.CheckBatch(out)
	return out, nil
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
		for _, p := range m.parts {
			m.work = obs.AddPart(m.work, p.PartRows)
		}
		m.cur.Add(m.sc.Stats())
		m.io.Add(m.cur)
		m.eng.addScanIO(m.cur)
		m.cur = obs.ScanIO{}
		m.sc.Close()
		m.sc = nil
	}
	m.merger, m.pending = nil, nil
	m.readPDT, m.writePDT = nil, nil
	m.releaseMeta()
	debugCheckUnpinned(m)
	m.stage = 2
	return nil
}
