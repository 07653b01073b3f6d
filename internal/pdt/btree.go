// Package pdt implements Positional Delta Trees (Héman et al. [12], §6 of
// the VectorH paper): counting B+-trees storing inserts, deletes and
// modifies positionally, so that differences can be merged into scans by
// position — no key comparisons — and stable IDs (SIDs) translate to current
// row IDs (RIDs) and back in logarithmic time.
//
// Layering follows the paper: a big slow-moving Read-PDT holds differences
// against the persistent table, a smaller Write-PDT holds differences
// against the Read-PDT image, and each transaction stacks a private
// Trans-PDT on top. One simplification against the paper: Write- and
// Trans-PDT entries are both keyed in the Read-image position space, so
// commit-time serialization merges by position directly instead of rebasing
// delta-on-delta; write-write conflicts are still detected at tuple
// granularity via per-entry commit epochs.
package pdt

// EntryKind discriminates delta entries.
type EntryKind uint8

// Delta entry kinds.
const (
	Ins EntryKind = iota
	Del
	Mod
)

// stableSeq orders a Del/Mod entry after every insert at the same SID (the
// entry conceptually sits on the stable tuple itself).
const stableSeq int32 = 1 << 30

// Entry is one delta. Inserts carry a full row; modifies carry sparse
// (column, value) pairs. Epoch records the commit that produced the entry,
// for snapshot-based conflict detection.
type Entry struct {
	Sid   int64
	Seq   int32
	Kind  EntryKind
	Row   []any // Ins: full row
	Cols  []int // Mod: column indexes
	Vals  []any // Mod: values parallel to Cols
	Epoch int64
}

func keyLess(s1 int64, q1 int32, s2 int64, q2 int32) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return q1 < q2
}

const btreeOrder = 16 // max children per interior node; max entries per leaf

// node is a counting B+-tree node. Interior nodes store per-subtree
// aggregate counts used for positional arithmetic.
type node struct {
	leaf     bool
	entries  []Entry // leaf only
	children []*node // interior only

	// Aggregates over the subtree.
	cnt    int   // total entries
	ins    int   // insert entries
	del    int   // delete entries
	maxSid int64 // max key (for routing)
	maxSeq int32
}

func newLeaf() *node { return &node{leaf: true} }

func (n *node) recompute() {
	if n.leaf {
		n.cnt = len(n.entries)
		n.ins, n.del = 0, 0
		for i := range n.entries {
			switch n.entries[i].Kind {
			case Ins:
				n.ins++
			case Del:
				n.del++
			}
		}
		if len(n.entries) > 0 {
			last := n.entries[len(n.entries)-1]
			n.maxSid, n.maxSeq = last.Sid, last.Seq
		} else {
			n.maxSid, n.maxSeq = -1, 0
		}
		return
	}
	n.cnt, n.ins, n.del = 0, 0, 0
	for _, c := range n.children {
		n.cnt += c.cnt
		n.ins += c.ins
		n.del += c.del
	}
	if len(n.children) > 0 {
		last := n.children[len(n.children)-1]
		n.maxSid, n.maxSeq = last.maxSid, last.maxSeq
	}
}

// insert adds e in key order. It returns a new right sibling when the node
// splits.
func (n *node) insert(e Entry) *node {
	if n.leaf {
		i := 0
		for i < len(n.entries) && !keyLess(e.Sid, e.Seq, n.entries[i].Sid, n.entries[i].Seq) {
			i++
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		n.recompute()
		if len(n.entries) <= btreeOrder {
			return nil
		}
		mid := len(n.entries) / 2
		right := newLeaf()
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid]
		n.recompute()
		right.recompute()
		return right
	}
	// Route to the first child whose max key >= e's key (or the last).
	ci := len(n.children) - 1
	for i, c := range n.children {
		if !keyLess(c.maxSid, c.maxSeq, e.Sid, e.Seq) {
			ci = i
			break
		}
	}
	if r := n.children[ci].insert(e); r != nil {
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = r
	}
	n.recompute()
	if len(n.children) <= btreeOrder {
		return nil
	}
	mid := len(n.children) / 2
	right := &node{children: append([]*node(nil), n.children[mid:]...)}
	n.children = n.children[:mid]
	n.recompute()
	right.recompute()
	return right
}

// remove deletes the entry with the exact key, reporting whether it existed.
// Underfull nodes are tolerated (lazy deletion); empty children are pruned.
func (n *node) remove(sid int64, seq int32) bool {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].Sid == sid && n.entries[i].Seq == seq {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				n.recompute()
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if !keyLess(c.maxSid, c.maxSeq, sid, seq) {
			ok := c.remove(sid, seq)
			if ok && c.cnt == 0 && len(n.children) > 1 {
				n.children = append(n.children[:i], n.children[i+1:]...)
			}
			n.recompute()
			return ok
		}
	}
	return false
}

// find returns a pointer to the entry with the exact key, or nil.
func (n *node) find(sid int64, seq int32) *Entry {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].Sid == sid && n.entries[i].Seq == seq {
				return &n.entries[i]
			}
		}
		return nil
	}
	for _, c := range n.children {
		if !keyLess(c.maxSid, c.maxSeq, sid, seq) {
			return c.find(sid, seq)
		}
	}
	return nil
}

// countBefore returns (#entries, #inserts, #deletes) with key < (sid, seq).
func (n *node) countBefore(sid int64, seq int32) (cnt, ins, del int) {
	if n.leaf {
		for i := range n.entries {
			if !keyLess(n.entries[i].Sid, n.entries[i].Seq, sid, seq) {
				break
			}
			cnt++
			switch n.entries[i].Kind {
			case Ins:
				ins++
			case Del:
				del++
			}
		}
		return
	}
	for _, c := range n.children {
		if keyLess(c.maxSid, c.maxSeq, sid, seq) {
			cnt += c.cnt
			ins += c.ins
			del += c.del
			continue
		}
		c2, i2, d2 := c.countBefore(sid, seq)
		return cnt + c2, ins + i2, del + d2
	}
	return
}

// walkFrom visits entries with SID >= sid in key order while fn returns
// true.
func (n *node) walkFrom(sid int64, fn func(*Entry) bool) bool {
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if e.Sid < sid {
				continue
			}
			if !fn(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if c.maxSid < sid {
			continue
		}
		if !c.walkFrom(sid, fn) {
			return false
		}
	}
	return true
}

// walk visits entries in key order while fn returns true.
func (n *node) walk(fn func(*Entry) bool) bool {
	if n.leaf {
		for i := range n.entries {
			if !fn(&n.entries[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.walk(fn) {
			return false
		}
	}
	return true
}

// clone deep-copies the tree structure (entry payload slices are shared;
// they are never mutated in place after commit, honoring copy-on-write).
func (n *node) clone() *node {
	out := &node{leaf: n.leaf, cnt: n.cnt, ins: n.ins, del: n.del, maxSid: n.maxSid, maxSeq: n.maxSeq}
	if n.leaf {
		out.entries = append([]Entry(nil), n.entries...)
		return out
	}
	out.children = make([]*node, len(n.children))
	for i, c := range n.children {
		out.children[i] = c.clone()
	}
	return out
}
