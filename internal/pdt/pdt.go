package pdt

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrConflict is returned when commit-time serialization detects a
// write-write conflict at tuple granularity (optimistic concurrency
// control, §6).
var ErrConflict = errors.New("pdt: write-write conflict")

// PDT is one positional delta tree over a stable image of StableRows rows.
// All positions fed to the public methods are RIDs (positions in the image
// *after* applying this PDT); SIDs are positions in the underlying image.
type PDT struct {
	root       *node
	stableRows int64
	numMod     int
	memBytes   int

	// memo is what scans derive from the entries (see memo); every
	// mutation drops it, so only a PDT nobody writes any more keeps one.
	memo atomic.Pointer[memo]
}

// New returns an empty PDT over a stable image of n rows.
func New(n int64) *PDT { return &PDT{root: newLeaf(), stableRows: n} }

// StableRows returns the size of the underlying image.
func (t *PDT) StableRows() int64 { return t.stableRows }

// Size returns the visible row count: stable rows + inserts − deletes.
func (t *PDT) Size() int64 {
	return t.stableRows + int64(t.root.ins) - int64(t.root.del)
}

// Counts returns the number of insert, delete and modify entries.
func (t *PDT) Counts() (ins, del, mod int) { return t.root.ins, t.root.del, t.numMod }

// MemBytes estimates RAM held by delta payloads; update propagation triggers
// on it.
func (t *PDT) MemBytes() int { return t.memBytes + 48*t.root.cnt }

// insBefore / delBefore count entries with SID strictly below s.
func (t *PDT) insBefore(s int64) int {
	_, ins, _ := t.root.countBefore(s, -1)
	return ins
}

func (t *PDT) delBefore(s int64) int {
	_, _, del := t.root.countBefore(s, -1)
	return del
}

// insUpto counts inserts with SID <= s.
func (t *PDT) insUpto(s int64) int {
	_, ins, _ := t.root.countBefore(s, stableSeq)
	return ins
}

// numInsAt counts the inserts at exactly SID s, and maxSeq among them.
func (t *PDT) numInsAt(s int64) (n int, maxSeq int32) {
	maxSeq = -1
	t.root.walkFrom(s, func(e *Entry) bool {
		if e.Sid != s || e.Kind != Ins {
			return false
		}
		n++
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		return true
	})
	return
}

// stableEntry returns the Del/Mod entry on stable tuple s, or nil.
func (t *PDT) stableEntry(s int64) *Entry { return t.root.find(s, stableSeq) }

// firstRidOfSid returns the RID where SID s's window begins (the first
// insert at s, or the stable tuple itself).
func (t *PDT) firstRidOfSid(s int64) int64 {
	return s + int64(t.insBefore(s)) - int64(t.delBefore(s))
}

// SidToRid translates a stable position to its current position. The second
// result is false when the tuple is deleted.
func (t *PDT) SidToRid(s int64) (int64, bool) {
	if del := t.stableEntry(s); del != nil && del.Kind == Del {
		return 0, false
	}
	return s + int64(t.insUpto(s)) - int64(t.delBefore(s)), true
}

// Loc is the resolved location of a RID: either a stable tuple (Sid, with
// Insert == nil) or an insert entry held in the tree.
type Loc struct {
	Sid    int64
	Insert *Entry // non-nil when the RID addresses an uncommitted insert
}

// RidToSid resolves a current position to its location. It binary-searches
// the monotone firstRidOfSid mapping, so it costs O(log N · log n).
func (t *PDT) RidToSid(rid int64) (Loc, error) {
	if rid < 0 || rid >= t.Size() {
		return Loc{}, fmt.Errorf("pdt: rid %d out of range [0,%d)", rid, t.Size())
	}
	lo, hi := int64(0), t.stableRows // find max s with firstRidOfSid(s) <= rid
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.firstRidOfSid(mid) <= rid {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := lo
	k := rid - t.firstRidOfSid(s)
	nIns, _ := t.numInsAt(s)
	if k < int64(nIns) {
		// The k-th insert at s.
		var target *Entry
		i := int64(0)
		t.root.walkFrom(s, func(e *Entry) bool {
			if e.Sid != s || e.Kind != Ins {
				return false
			}
			if i == k {
				target = e
				return false
			}
			i++
			return true
		})
		if target == nil {
			return Loc{}, fmt.Errorf("pdt: internal: insert %d at sid %d not found", k, s)
		}
		return Loc{Sid: s, Insert: target}, nil
	}
	if k == int64(nIns) && s < t.stableRows {
		return Loc{Sid: s}, nil
	}
	return Loc{}, fmt.Errorf("pdt: internal: rid %d resolves past sid %d window", rid, s)
}

// Insert places row at position rid, shifting subsequent rows right.
func (t *PDT) Insert(rid int64, row []any) error {
	t.touch()
	if rid < 0 || rid > t.Size() {
		return fmt.Errorf("pdt: insert rid %d out of range [0,%d]", rid, t.Size())
	}
	var sid int64
	var seq int32
	if rid == t.Size() {
		sid = t.stableRows
		_, maxSeq := t.numInsAt(sid)
		seq = maxSeq + 1
	} else {
		loc, err := t.RidToSid(rid)
		if err != nil {
			return err
		}
		sid = loc.Sid
		if loc.Insert != nil {
			// Make room right before the existing insert by shifting
			// the seqs of it and its successors at this sid up by one.
			seq = loc.Insert.Seq
			t.shiftSeqs(sid, seq)
		} else {
			_, maxSeq := t.numInsAt(sid)
			seq = maxSeq + 1
		}
	}
	t.add(Entry{Sid: sid, Seq: seq, Kind: Ins, Row: row})
	return nil
}

// shiftSeqs renumbers insert entries at sid with Seq >= from, making room
// for an insertion at position `from`.
func (t *PDT) shiftSeqs(sid int64, from int32) {
	var toShift []Entry
	t.root.walkFrom(sid, func(e *Entry) bool {
		if e.Sid != sid || e.Kind != Ins {
			return false
		}
		if e.Seq >= from {
			toShift = append(toShift, *e)
		}
		return true
	})
	for i := len(toShift) - 1; i >= 0; i-- {
		t.root.remove(sid, toShift[i].Seq)
		e := toShift[i]
		e.Seq++
		t.addRaw(e)
	}
}

// Append inserts a row at the end of the table (the common bulk path; §6
// notes inserts dominate PDT volume).
func (t *PDT) Append(row []any) {
	t.touch()
	sid := t.stableRows
	_, maxSeq := t.numInsAt(sid)
	t.add(Entry{Sid: sid, Seq: maxSeq + 1, Kind: Ins, Row: row})
}

// Delete removes the row at position rid. Deleting an uncommitted insert
// simply removes the insert entry; deleting a stable tuple records a Del
// entry (superseding any Mod).
func (t *PDT) Delete(rid int64) error {
	t.touch()
	loc, err := t.RidToSid(rid)
	if err != nil {
		return err
	}
	if loc.Insert != nil {
		t.memBytes -= rowBytes(loc.Insert.Row)
		t.root.remove(loc.Sid, loc.Insert.Seq)
		return nil
	}
	if e := t.stableEntry(loc.Sid); e != nil {
		// A Mod exists; replace it with a Del.
		t.numMod--
		t.memBytes -= rowBytes(e.Vals)
		t.root.remove(loc.Sid, stableSeq)
	}
	t.addRaw(Entry{Sid: loc.Sid, Seq: stableSeq, Kind: Del})
	return nil
}

// Modify sets columns of the row at position rid. Modifying an uncommitted
// insert updates the insert in place (with copy-on-write of the row).
func (t *PDT) Modify(rid int64, cols []int, vals []any) error {
	t.touch()
	loc, err := t.RidToSid(rid)
	if err != nil {
		return err
	}
	if loc.Insert != nil {
		row := append([]any(nil), loc.Insert.Row...)
		for i, c := range cols {
			row[c] = vals[i]
		}
		loc.Insert.Row = row
		return nil
	}
	if e := t.stableEntry(loc.Sid); e != nil {
		if e.Kind == Del {
			return fmt.Errorf("pdt: modify of deleted rid %d", rid)
		}
		// Merge columns copy-on-write.
		nc := append([]int(nil), e.Cols...)
		nv := append([]any(nil), e.Vals...)
		for i, c := range cols {
			found := false
			for j, ec := range nc {
				if ec == c {
					nv[j] = vals[i]
					found = true
					break
				}
			}
			if !found {
				nc = append(nc, c)
				nv = append(nv, vals[i])
			}
		}
		e.Cols, e.Vals = nc, nv
		return nil
	}
	t.numMod++
	t.memBytes += rowBytes(vals)
	t.addRaw(Entry{Sid: loc.Sid, Seq: stableSeq, Kind: Mod,
		Cols: append([]int(nil), cols...), Vals: append([]any(nil), vals...)})
	return nil
}

func (t *PDT) add(e Entry) {
	t.memBytes += rowBytes(e.Row)
	t.addRaw(e)
}

func (t *PDT) addRaw(e Entry) {
	if r := t.root.insert(e); r != nil {
		t.root = &node{children: []*node{t.root, r}}
		t.root.recompute()
	}
}

func rowBytes(row []any) int {
	total := 0
	for _, v := range row {
		if s, ok := v.(string); ok {
			total += len(s) + 16
		} else {
			total += 16
		}
	}
	return total
}

// Entries returns every delta in key order (a snapshot slice; used by
// mergers and the WAL).
func (t *PDT) Entries() []Entry {
	out := make([]Entry, 0, t.root.cnt)
	t.root.walk(func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// CopyOnWrite returns an independent copy of the PDT; the paper's commit
// path replaces the master Write-PDT with such a copy so running queries
// keep their snapshot.
func (t *PDT) CopyOnWrite() *PDT {
	return &PDT{root: t.root.clone(), stableRows: t.stableRows, numMod: t.numMod, memBytes: t.memBytes}
}
