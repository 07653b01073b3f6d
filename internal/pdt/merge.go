package pdt

import (
	"fmt"

	"vectorh/internal/vector"
)

// Merger merges the deltas of one (immutable) PDT into a scan stream by
// position — the paper's "primary goal" for PDTs: no key comparisons, no IO
// on key columns. Construct one Merger per scan; it snapshots the entry list
// so concurrent copy-on-write commits never disturb a running scan.
type Merger struct {
	t       *PDT
	schema  vector.Schema
	cols    []int       // projected full-schema column indexes
	projOf  map[int]int // full-schema index -> projection slot
	entries []Entry
}

// NewMerger returns a merger for scans projecting the given full-schema
// column indexes.
func NewMerger(t *PDT, schema vector.Schema, cols []int) *Merger {
	m := &Merger{t: t, schema: schema, cols: cols, projOf: make(map[int]int, len(cols))}
	for slot, c := range cols {
		m.projOf[c] = slot
	}
	m.entries = t.Entries()
	return m
}

// HasDeltas reports whether the PDT holds any entries at all (fast path for
// scans of never-updated partitions).
func (m *Merger) HasDeltas() bool { return len(m.entries) > 0 }

// HasDeltasIn reports whether any delta touches the stable-row range
// [s0, s1) — the per-span fast path: a span no delta touches can be
// late-materialized straight off the column blocks, because MergeRange
// would return it unchanged.
func (m *Merger) HasDeltasIn(s0, s1 int64) bool {
	lo := m.searchSid(s0)
	return lo < len(m.entries) && m.entries[lo].Sid < s1
}

// FirstRid returns the RID of the first output row of a merge starting at
// stable row s0 (what MergeRange would report), without merging.
func (m *Merger) FirstRid(s0 int64) int64 { return m.t.firstRidOfSid(s0) }

// MergeRange merges deltas into a dense batch covering the stable rows
// [s0, s0+b.Len()), returning the merged batch and the RID of its first
// output row. When no deltas touch the range, the input batch is returned
// unchanged.
func (m *Merger) MergeRange(b *vector.Batch, s0 int64) (*vector.Batch, int64, error) {
	if b.Sel != nil {
		return nil, 0, fmt.Errorf("pdt: MergeRange requires a dense batch")
	}
	s1 := s0 + int64(b.Len())
	lo := m.searchSid(s0)
	if lo == len(m.entries) || m.entries[lo].Sid >= s1 {
		return b, m.t.firstRidOfSid(s0), nil
	}
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(m.cols))}
	for i, c := range m.cols {
		out.Vecs[i] = vector.New(m.schema[c].Type.Kind, b.Len()+8)
	}
	// Entries are ordered by (Sid, Seq): the inserts at a stable row come
	// before the row's own Del or Mod. The stable rows between entries are
	// copied in bulk, column by column.
	copied := s0 // stable rows below it are in out or deleted
	for ei := lo; ei < len(m.entries) && m.entries[ei].Sid < s1; ei++ {
		e := &m.entries[ei]
		appendStable(out, b, int(copied-s0), int(e.Sid-s0))
		copied = e.Sid
		switch e.Kind {
		case Ins:
			m.appendRow(out, e.Row)
			continue
		case Mod:
			row := int(e.Sid - s0)
			for i, c := range m.cols {
				if mv, ok := m.modValue(e, c); ok {
					out.Vecs[i].AppendAny(mv)
				} else {
					out.Vecs[i].AppendFrom(b.Col(i), row)
				}
			}
		}
		copied = e.Sid + 1
	}
	appendStable(out, b, int(copied-s0), b.Len())
	return out, m.t.firstRidOfSid(s0), nil
}

// appendStable appends the stable rows [lo, hi) of b to out.
func appendStable(out, b *vector.Batch, lo, hi int) {
	if lo < hi {
		for i, v := range out.Vecs {
			v.AppendRange(b.Col(i), lo, hi)
		}
	}
}

func (m *Merger) modValue(e *Entry, fullCol int) (any, bool) {
	for j, c := range e.Cols {
		if c == fullCol {
			return e.Vals[j], true
		}
	}
	return nil, false
}

func (m *Merger) appendRow(out *vector.Batch, row []any) {
	for i, c := range m.cols {
		out.Vecs[i].AppendAny(row[c])
	}
}

// searchSid returns the first entry index with Sid >= s0.
func (m *Merger) searchSid(s0 int64) int {
	lo, hi := 0, len(m.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.entries[mid].Sid < s0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tail returns the inserts beyond the last stable tuple (appends) as one
// batch, with the RID of its first row; (nil, 0) when there are none.
func (m *Merger) Tail() (*vector.Batch, int64) {
	n := m.t.StableRows()
	lo := m.searchSid(n)
	if lo == len(m.entries) {
		return nil, 0
	}
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(m.cols))}
	for i, c := range m.cols {
		out.Vecs[i] = vector.New(m.schema[c].Type.Kind, len(m.entries)-lo)
	}
	for ; lo < len(m.entries); lo++ {
		if m.entries[lo].Kind == Ins {
			m.appendRow(out, m.entries[lo].Row)
		}
	}
	if out.Len() == 0 {
		return nil, 0
	}
	return out, m.t.firstRidOfSid(n)
}
