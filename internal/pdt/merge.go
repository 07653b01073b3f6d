package pdt

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"vectorh/internal/vector"
)

// memo is what every scan of a PDT derives from its entries, built once and
// shared read-only: the entry list in key order, its running row shift, and
// the tail inserts as a typed batch. Published masters are immutable
// (txn.Manager.Snapshot), so a master keeps its memo for its whole life; a
// PDT that is still being written drops it at every mutation (touch), so it
// never sees a stale one.
type memo struct {
	entries []Entry
	net     []int64 // net[i]: inserts minus deletes among entries[:i]
	tail    atomic.Pointer[tailBatch]
}

// tailBatch is a PDT's tail inserts as one batch of the full schema.
type tailBatch struct {
	schema vector.Schema
	b      *vector.Batch
}

// touch drops the memo; every mutating method calls it first.
func (t *PDT) touch() { t.memo.Store(nil) }

// memoized returns the PDT's memo, building it on first use. Concurrent
// scans of one published PDT may both build it; either copy is the same.
func (t *PDT) memoized() *memo {
	if mm := t.memo.Load(); mm != nil {
		return mm
	}
	mm := &memo{entries: t.Entries()}
	mm.net = make([]int64, len(mm.entries)+1)
	for i := range mm.entries {
		mm.net[i+1] = mm.net[i]
		switch mm.entries[i].Kind {
		case Ins:
			mm.net[i+1]++
		case Del:
			mm.net[i+1]--
		}
	}
	t.memo.Store(mm)
	return mm
}

// firstRid is firstRidOfSid off the memo: one binary search.
func (mm *memo) firstRid(s int64) int64 { return s + mm.net[searchSid(mm.entries, s)] }

// tailRows returns the inserts at stableRows (the tail) as a batch of the
// full schema, nil when there are none. It is built once per schema and
// shared: readers never write into it.
func (mm *memo) tailRows(stableRows int64, schema vector.Schema) *vector.Batch {
	if tb := mm.tail.Load(); tb != nil && sameKinds(tb.schema, schema) {
		return tb.b
	}
	lo := searchSid(mm.entries, stableRows)
	if lo == len(mm.entries) {
		return nil
	}
	b := vector.NewBatchForSchema(schema, len(mm.entries)-lo)
	for _, e := range mm.entries[lo:] {
		b.AppendRow(e.Row...) // only inserts lie beyond the stable image
	}
	mm.tail.Store(&tailBatch{schema: schema, b: b})
	return b
}

func sameKinds(a, b vector.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type.Kind != b[i].Type.Kind {
			return false
		}
	}
	return true
}

// Merger merges the deltas of one PDT — or of a Read-PDT with its Write-PDT
// stacked on top — into a scan by position: the paper's "primary goal" for
// PDTs, no key comparisons and no IO on key columns. Its primitive is Span, a
// copy-free description of what the deltas do to a range of stable rows
// (which rows they delete, which they modify to what, in front of which they
// insert); a scan keeps the stable rows where they are and applies the
// description as a selection and per-column patches. MergeRange is the
// copying consumer of the same description. A Merger reads the PDTs' shared
// memos, so making one per scan costs nothing that grows with the PDT.
type Merger struct {
	t, w   *PDT // w, when set, is keyed in t's output positions
	tm, wm *memo
	schema vector.Schema
	cols   []int // projected full-schema column indexes
}

// NewMerger returns a merger of one PDT for scans projecting the given
// full-schema column indexes.
func NewMerger(t *PDT, schema vector.Schema, cols []int) *Merger {
	return &Merger{t: t, tm: t.memoized(), schema: schema, cols: cols}
}

// NewStackedMerger returns a merger of a Read-PDT with its Write-PDT on top:
// positions in, and rows out, are those of the two layers composed.
func NewStackedMerger(read, write *PDT, schema vector.Schema, cols []int) *Merger {
	m := NewMerger(read, schema, cols)
	m.w, m.wm = write, write.memoized()
	return m
}

// HasDeltas reports whether the layers hold any entries at all.
func (m *Merger) HasDeltas() bool {
	return len(m.tm.entries) > 0 || m.wm != nil && len(m.wm.entries) > 0
}

// StableRows returns the size of the stable image the merger reads over.
func (m *Merger) StableRows() int64 { return m.t.stableRows }

// firstRid returns the output position of the first row a merge from stable
// row s0 emits.
func (m *Merger) firstRid(s0 int64) int64 {
	r := m.tm.firstRid(s0)
	if m.wm != nil {
		r = m.wm.firstRid(r)
	}
	return r
}

// rowMod is one modified stable row of a Span: the new values of the
// full-schema columns Cols, parallel in Vals.
type rowMod struct {
	Pos  int32
	Cols []int
	Vals []any
}

func (md *rowMod) value(col int) (any, bool) {
	for j, c := range md.Cols {
		if c == col {
			return md.Vals[j], true
		}
	}
	return nil, false
}

// under returns the modify of a row both layers modify: w, the Write
// layer's, with md's values for the columns w does not set.
func (md *rowMod) under(w *rowMod) rowMod {
	out := rowMod{Pos: w.Pos, Cols: slices.Clone(w.Cols), Vals: slices.Clone(w.Vals)}
	for j, c := range md.Cols {
		if _, ok := w.value(c); !ok {
			out.Cols, out.Vals = append(out.Cols, c), append(out.Vals, md.Vals[j])
		}
	}
	return out
}

// Span describes what a merger's deltas do to stable rows [s0, s0+n), as
// offsets from s0, without copying a row: Del says which of them are
// deleted, Ins in front of which of them rows are inserted
// (Merger.Inserted returns those rows), and Sets and Patch what the
// modifies set. A Span is reused from span to span; its modifies alias the
// PDT entries.
type Span struct {
	Del  []int32  // deleted stable rows, ascending
	Ins  []int32  // stable rows with inserted rows in front of them, ascending
	mods []rowMod // modified stable rows, ascending; per column the Write layer's value wins
}

// Empty reports whether no delta touches the span.
func (d *Span) Empty() bool { return len(d.Del)+len(d.mods)+len(d.Ins) == 0 }

// Sets reports whether a modify of the span sets full-schema column col to
// a value keep accepts; a nil keep accepts every value.
func (d *Span) Sets(col int, keep func(v any) bool) bool {
	for i := range d.mods {
		if v, ok := d.mods[i].value(col); ok && (keep == nil || keep(v)) {
			return true
		}
	}
	return false
}

// Patch returns v — the span's stable values of full-schema column col —
// with the span's modifies applied: v itself when none sets col, else a
// copy. v may be shared memory (a block cache view) and is never written. A
// patched string column is in value form, since a new value need not be in
// the block's dictionary.
func (d *Span) Patch(v *vector.Vec, col int) *vector.Vec {
	if !d.Sets(col, nil) {
		return v
	}
	n := v.Len()
	out := vector.New(v.Kind(), n)
	if v.Kind() == vector.String {
		done := 0
		for i := range d.mods {
			if x, ok := d.mods[i].value(col); ok {
				pos := int(d.mods[i].Pos)
				out.AppendRange(v, done, pos)
				out.AppendString(x.(string))
				done = pos + 1
			}
		}
		out.AppendRange(v, done, n)
		return out
	}
	out.AppendRange(v, 0, n)
	for i := range d.mods {
		x, ok := d.mods[i].value(col)
		if !ok {
			continue
		}
		switch pos := d.mods[i].Pos; v.Kind() {
		case vector.Int32:
			out.Int32s()[pos] = x.(int32)
		case vector.Int64:
			out.Int64s()[pos] = x.(int64)
		case vector.Float64:
			out.Float64s()[pos] = x.(float64)
		case vector.Bool:
			out.Bools()[pos] = x.(bool)
		}
	}
	return out
}

// add records entry e at offset off of the span; inserted says that e, a
// Write-layer entry, addresses a Read-layer insert in front of that offset.
func (d *Span) add(e *Entry, off int32, inserted bool) {
	switch {
	case e.Kind == Ins:
		if len(d.Ins) == 0 || d.Ins[len(d.Ins)-1] != off {
			d.Ins = append(d.Ins, off)
		}
	case inserted:
		// A delete or modify of an inserted row: its offset is in Ins
		// already, and Inserted applies it.
	case e.Kind == Del:
		d.Del = append(d.Del, off)
	default:
		d.mods = append(d.mods, rowMod{Pos: off, Cols: e.Cols, Vals: e.Vals})
	}
}

// Span fills d with the description of stable rows [s0, s0+n).
func (m *Merger) Span(s0 int64, n int, d *Span) {
	d.Del, d.Ins, d.mods = d.Del[:0], d.Ins[:0], d.mods[:0]
	if !m.HasDeltas() {
		return
	}
	s1 := s0 + int64(n)
	te := m.tm.entries
	lo, hi := searchSid(te, s0), searchSid(te, s1)
	for i := lo; i < hi; i++ {
		d.add(&te[i], int32(te[i].Sid-s0), false)
	}
	if m.wm == nil {
		return
	}
	// The span's rows of the Read image are [r0, r1); the Write layer is
	// keyed there.
	r0, r1 := s0+m.tm.net[lo], s1+m.tm.net[hi]
	we := m.wm.entries
	wlo, whi := searchSid(we, r0), searchSid(we, r1)
	if wlo == whi {
		return
	}
	c := readCursor{ents: te[lo:hi], s: s0, r: r0, end: s1}
	for i := wlo; i < whi; i++ {
		s, inserted := c.seek(we[i].Sid)
		d.add(&we[i], int32(s-s0), inserted)
	}
	if lo == hi {
		return // one layer's share alone is in order
	}
	// Both layers' shares: order them together, drop the Read layer's
	// modifies of rows the Write layer deletes, and compose the rows both
	// modify (the stable sort keeps the Read layer's first).
	slices.Sort(d.Ins)
	d.Ins = slices.Compact(d.Ins)
	slices.Sort(d.Del)
	slices.SortStableFunc(d.mods, func(a, b rowMod) int { return cmp.Compare(a.Pos, b.Pos) })
	mods := d.mods[:0]
	for i := 0; i < len(d.mods); i++ {
		md := d.mods[i]
		if _, deleted := slices.BinarySearch(d.Del, md.Pos); deleted {
			continue
		}
		if i+1 < len(d.mods) && d.mods[i+1].Pos == md.Pos {
			md = md.under(&d.mods[i+1])
			i++
		}
		mods = append(mods, md)
	}
	d.mods = mods
}

// readCursor walks a span's Read image in order, mapping Read-image
// positions back to the stable rows whose windows hold them.
type readCursor struct {
	ents []Entry // the Read layer's entries in the span
	i    int
	s    int64 // the next stable row
	r    int64 // the Read-image position of the next Read-image row
	end  int64 // the span's end
}

// seek advances to Read-image position target (never behind the cursor)
// and reports the stable row whose window holds it, and whether it is a
// Read-layer insert rather than that stable row itself.
func (c *readCursor) seek(target int64) (sid int64, inserted bool) {
	for c.s < c.end {
		if c.i < len(c.ents) && c.ents[c.i].Sid == c.s {
			switch c.ents[c.i].Kind {
			case Ins:
				if c.r == target {
					return c.s, true
				}
				c.r++
			case Del:
				c.s++
			case Mod:
				if c.r == target {
					return c.s, false
				}
				c.r++
				c.s++
			}
			c.i++
			continue
		}
		next := c.end
		if c.i < len(c.ents) {
			next = c.ents[c.i].Sid
		}
		if target < c.r+(next-c.s) {
			c.s += target - c.r
			c.r = target
			return c.s, false
		}
		c.r += next - c.s
		c.s = next
	}
	return c.end, false
}

// Inserted appends to dst the rows the deltas place in front of stable row s
// — the tail when s is StableRows — as at most two dense batches in position
// order. The tail's batches are shared with other scans of the same PDTs:
// read them, never write them.
func (m *Merger) Inserted(s int64, dst []*vector.Batch) []*vector.Batch {
	te := m.tm.entries
	lo := searchSid(te, s)
	hi := lo
	for hi < len(te) && te[hi].Sid == s && te[hi].Kind == Ins {
		hi++
	}
	tail := s == m.t.stableRows
	var rows *vector.Batch
	switch {
	case tail:
		rows = m.tailOf(m.t, m.tm)
	case hi > lo:
		rows = m.rowsOf(te[lo:hi])
	}
	if m.wm == nil {
		return appendRows(dst, rows)
	}
	// The Read layer's inserted rows are Read-image rows [r0, r0+k); the
	// Write layer's entries there apply to them.
	r0, k := s+m.tm.net[lo], int64(hi-lo)
	we := m.wm.entries
	wlo, whi := searchSid(we, r0), searchSid(we, r0+k)
	if wlo < whi {
		wOnly := &Merger{t: m.w, tm: m.wm, schema: m.schema, cols: m.cols}
		rows, _, _ = wOnly.MergeRange(rows, r0) // rows is dense and non-empty: k > 0
	}
	dst = appendRows(dst, rows)
	switch {
	case tail:
		dst = appendRows(dst, m.tailOf(m.w, m.wm))
	case hi == len(te) || te[hi].Sid != s || te[hi].Kind != Del:
		// Stable row s is Read-image row r0+k: the Write layer's inserts in
		// front of it are in its window too.
		j := whi
		for j < len(we) && we[j].Sid == r0+k && we[j].Kind == Ins {
			j++
		}
		if j > whi {
			dst = appendRows(dst, m.rowsOf(we[whi:j]))
		}
	}
	return dst
}

func appendRows(dst []*vector.Batch, b *vector.Batch) []*vector.Batch {
	if b != nil && b.Len() > 0 {
		dst = append(dst, b)
	}
	return dst
}

// tailOf projects t's shared tail batch.
func (m *Merger) tailOf(t *PDT, mm *memo) *vector.Batch {
	if full := mm.tailRows(t.stableRows, m.schema); full != nil {
		return full.Project(m.cols)
	}
	return nil
}

// rowsOf builds the projected batch of insert entries.
func (m *Merger) rowsOf(ents []Entry) *vector.Batch {
	out := m.newBatch(len(ents))
	for i := range ents {
		for j, c := range m.cols {
			out.Vecs[j].AppendAny(ents[i].Row[c])
		}
	}
	return out
}

func (m *Merger) newBatch(capHint int) *vector.Batch {
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(m.cols))}
	for i, c := range m.cols {
		out.Vecs[i] = vector.New(m.schema[c].Type.Kind, capHint)
	}
	return out
}

// MergeRange merges the deltas into a dense batch covering the stable rows
// [s0, s0+b.Len()), returning the merged batch and the output position of
// its first row. It is Span applied by copying: the reference a scan's
// positional application is checked against. When no delta touches the
// range, the input batch is returned unchanged.
func (m *Merger) MergeRange(b *vector.Batch, s0 int64) (*vector.Batch, int64, error) {
	if b.Sel != nil {
		return nil, 0, fmt.Errorf("pdt: MergeRange requires a dense batch")
	}
	var d Span
	n := int32(b.Len())
	m.Span(s0, int(n), &d)
	rid := m.firstRid(s0)
	if d.Empty() {
		return b, rid, nil
	}
	out := m.newBatch(int(n) + 8)
	var ins []*vector.Batch
	done, ii, di, mi := int32(0), 0, 0, 0
	for {
		next := n
		if ii < len(d.Ins) {
			next = min(next, d.Ins[ii])
		}
		if di < len(d.Del) {
			next = min(next, d.Del[di])
		}
		if mi < len(d.mods) {
			next = min(next, d.mods[mi].Pos)
		}
		for i, v := range out.Vecs {
			v.AppendRange(b.Col(i), int(done), int(next))
		}
		if next == n {
			return out, rid, nil
		}
		done = next
		if ii < len(d.Ins) && d.Ins[ii] == next {
			ins = m.Inserted(s0+int64(next), ins[:0])
			for _, r := range ins {
				for i, v := range out.Vecs {
					v.AppendRange(r.Col(i), 0, r.Len())
				}
			}
			ii++
		}
		switch {
		case di < len(d.Del) && d.Del[di] == next:
			di++
			done = next + 1
		case mi < len(d.mods) && d.mods[mi].Pos == next:
			md := &d.mods[mi]
			for i, c := range m.cols {
				if x, ok := md.value(c); ok {
					out.Vecs[i].AppendAny(x)
				} else {
					out.Vecs[i].AppendFrom(b.Col(i), int(next))
				}
			}
			mi++
			done = next + 1
		}
	}
}

// searchSid returns the first entry index with Sid >= s0.
func searchSid(ents []Entry, s0 int64) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := (lo + hi) / 2
		if ents[mid].Sid < s0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tail returns the rows beyond the last stable tuple (appends) as one batch,
// with the output position of its first row; (nil, 0) when there are none.
// The batch may be shared with other scans: read it, never write it.
func (m *Merger) Tail() (*vector.Batch, int64) {
	bs := m.Inserted(m.t.stableRows, nil)
	switch len(bs) {
	case 0:
		return nil, 0
	case 1:
		return bs[0], m.firstRid(m.t.stableRows)
	}
	out := m.newBatch(bs[0].Len() + bs[1].Len())
	for _, r := range bs {
		for i, v := range out.Vecs {
			v.AppendRange(r.Col(i), 0, r.Len())
		}
	}
	return out, m.firstRid(m.t.stableRows)
}
