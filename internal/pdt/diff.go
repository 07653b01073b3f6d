package pdt

import "fmt"

// Additional entry kinds that appear only in serialized transaction diffs
// (never inside a tree): operations targeting a committed insert entry of
// the master Write-PDT, addressed by its stable (Sid, Seq) key.
const (
	DelIns EntryKind = 3 + iota // delete a committed insert
	ModIns                      // modify columns of a committed insert
)

// Diff computes the transaction's serialized delta: the entries one must
// apply to snap to obtain eff. eff must have been derived from snap by
// CopyOnWrite plus rid-based operations. The result is what commit ships to
// the WAL and merges into the (possibly advanced) master via ApplyTrans —
// the "PDT serialization" step of §6.
func Diff(snap, eff *PDT) []Entry {
	a, b := snap.Entries(), eff.Entries()
	var out []Entry
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a) || (j < len(b) && keyLess(b[j].Sid, b[j].Seq, a[i].Sid, a[i].Seq)):
			// eff-only: a new insert, delete or modify.
			e := b[j]
			e.Epoch = 0
			out = append(out, e)
			j++
		case j == len(b) || keyLess(a[i].Sid, a[i].Seq, b[j].Sid, b[j].Seq):
			// snap-only: the transaction removed a committed insert.
			if a[i].Kind == Ins {
				out = append(out, Entry{Sid: a[i].Sid, Seq: a[i].Seq, Kind: DelIns})
			}
			i++
		default: // same key
			out = append(out, diffSameKey(&a[i], &b[j])...)
			i++
			j++
		}
	}
	return out
}

func diffSameKey(s, e *Entry) []Entry {
	switch {
	case s.Kind == Ins && e.Kind == Ins:
		// Row modified in place?
		var cols []int
		var vals []any
		for c := range e.Row {
			if s.Row[c] != e.Row[c] {
				cols = append(cols, c)
				vals = append(vals, e.Row[c])
			}
		}
		if cols != nil {
			return []Entry{{Sid: e.Sid, Seq: e.Seq, Kind: ModIns, Cols: cols, Vals: vals}}
		}
	case s.Kind == Mod && e.Kind == Del:
		return []Entry{{Sid: e.Sid, Seq: stableSeq, Kind: Del}}
	case s.Kind == Mod && e.Kind == Mod:
		var cols []int
		var vals []any
		for j, c := range e.Cols {
			old, had := (*Entry)(s).modLookup(c)
			if !had || old != e.Vals[j] {
				cols = append(cols, c)
				vals = append(vals, e.Vals[j])
			}
		}
		if cols != nil {
			return []Entry{{Sid: e.Sid, Seq: stableSeq, Kind: Mod, Cols: cols, Vals: vals}}
		}
	}
	return nil
}

func (e *Entry) modLookup(col int) (any, bool) {
	for j, c := range e.Cols {
		if c == col {
			return e.Vals[j], true
		}
	}
	return nil, false
}

// ApplyTrans merges serialized transaction entries into dst (the master
// Write-PDT, or a copy-on-write of it), stamping commitEpoch. It returns
// ErrConflict — applying nothing — when any entry touches a tuple written
// by a transaction that committed after snapshotEpoch (optimistic CC at
// tuple granularity).
func ApplyTrans(dst *PDT, entries []Entry, snapshotEpoch, commitEpoch int64) error {
	// Validation pass first: commit is all-or-nothing.
	for i := range entries {
		e := &entries[i]
		switch e.Kind {
		case Ins:
		case Del, Mod:
			if cur := dst.stableEntry(e.Sid); cur != nil && cur.Epoch > snapshotEpoch {
				return fmt.Errorf("%w: stable sid=%d (epoch %d > snapshot %d)", ErrConflict, e.Sid, cur.Epoch, snapshotEpoch)
			}
		case DelIns, ModIns:
			cur := dst.root.find(e.Sid, e.Seq)
			if cur == nil || cur.Kind != Ins {
				return fmt.Errorf("%w: insert (%d,%d) no longer present", ErrConflict, e.Sid, e.Seq)
			}
			if cur.Epoch > snapshotEpoch {
				return fmt.Errorf("%w: insert (%d,%d) (epoch %d > snapshot %d)", ErrConflict, e.Sid, e.Seq, cur.Epoch, snapshotEpoch)
			}
		}
	}
	dst.touch()
	for _, e := range entries {
		e.Epoch = commitEpoch
		switch e.Kind {
		case Ins:
			_, maxSeq := dst.numInsAt(e.Sid)
			e.Seq = maxSeq + 1
			dst.add(e)
		case Del:
			if cur := dst.stableEntry(e.Sid); cur != nil {
				if cur.Kind == Del {
					continue
				}
				dst.numMod--
				dst.root.remove(e.Sid, stableSeq)
			}
			dst.addRaw(e)
		case Mod:
			if cur := dst.stableEntry(e.Sid); cur != nil && cur.Kind == Mod {
				nc := append([]int(nil), cur.Cols...)
				nv := append([]any(nil), cur.Vals...)
				for j, c := range e.Cols {
					found := false
					for k, ec := range nc {
						if ec == c {
							nv[k] = e.Vals[j]
							found = true
							break
						}
					}
					if !found {
						nc = append(nc, c)
						nv = append(nv, e.Vals[j])
					}
				}
				cur.Cols, cur.Vals, cur.Epoch = nc, nv, commitEpoch
				continue
			}
			dst.numMod++
			dst.addRaw(e)
		case DelIns:
			cur := dst.root.find(e.Sid, e.Seq)
			dst.memBytes -= rowBytes(cur.Row)
			dst.root.remove(e.Sid, e.Seq)
		case ModIns:
			cur := dst.root.find(e.Sid, e.Seq)
			row := append([]any(nil), cur.Row...)
			for j, c := range e.Cols {
				row[c] = e.Vals[j]
			}
			cur.Row, cur.Epoch = row, commitEpoch
		}
	}
	return nil
}

// Replay applies the entries of src (keyed in dst's OUTPUT position space,
// i.e. src is stacked directly on dst) into dst, implementing write→read
// update propagation. Entries are replayed ascending with positional
// adjustment for already-applied inserts and deletes.
func Replay(dst *PDT, src *PDT) error {
	insApplied, delApplied := int64(0), int64(0)
	for _, e := range src.Entries() {
		rid := e.Sid + insApplied - delApplied
		switch e.Kind {
		case Ins:
			if err := dst.Insert(rid, e.Row); err != nil {
				return err
			}
			insApplied++
		case Del:
			if err := dst.Delete(rid); err != nil {
				return err
			}
			delApplied++
		case Mod:
			if err := dst.Modify(rid, e.Cols, e.Vals); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pdt: replay of kind %d not supported", e.Kind)
		}
	}
	return nil
}

// IsTailInsertOnly reports whether every entry is an insert at the end of
// the stable image — the cheap update-propagation case of §6 ("flushing
// tail inserts only creates new data blocks and does not modify existing
// ones").
func (t *PDT) IsTailInsertOnly() bool {
	ok := true
	t.root.walk(func(e *Entry) bool {
		if e.Kind != Ins || e.Sid != t.stableRows {
			ok = false
			return false
		}
		return true
	})
	return ok
}
