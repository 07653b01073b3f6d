package exec

import (
	"fmt"
	"math"
	"slices"

	"vectorh/internal/vector"
)

// HashTable is the shared vectorized hash infrastructure behind hash joins,
// group-by aggregation and COUNT(DISTINCT). It replaces the former
// map[string] tables keyed by per-row byte serialization: keys are stored
// column-wise in typed vectors, hashes come from the vector hash kernels
// (one function shared with exchange partitioning), and probing is
// batch-at-a-time — compute all hashes, chase bucket chains with candidate
// selection vectors, and verify keys column-wise against the stored key
// vectors. No per-row serialization, no per-row map allocations.
//
// Layout: an open-addressing bucket directory with a power-of-two size maps
// hash bits to the first stored row of its bucket; rows sharing a bucket are
// chained through next[] in insertion order. Hash collisions and genuine
// key duplicates share a chain — the stored per-row hash is a cheap
// pre-filter and the column-wise verify separates them. Row ids are stable
// (insertion order), so they double as group ids for aggregation and build
// row ids for joins.
//
// Dense group ids: FindOrInsert first tries to give every key column a small
// local domain for the batch (a bool, an integer's offset from the batch
// minimum, or a dictionary code). When the product of the domains is at most
// 1/denseRowsPerSlot of the batch's rows, each row's key becomes one array
// slot; only the first row of each slot is hashed (vector.HashRow) and
// resolved through the chains, and every row takes its slot's id. Group ids,
// emission order and errors are exactly those of the hashed path, and both
// paths share one table. Group-bys over flags, statuses, modes and years
// take it — a small-domain string column is stored as PDICT and reaches the
// table as codes; keys such as order keys and names, and materialized
// strings, take the hashed path.
//
// Ownership: a group-by table belongs to its one operator. A join's table
// belongs to its BuildSide: one goroutine builds it, after which it is
// frozen and only read, so every stream of the join probes it at once, each
// drawing its probe scratch from its own pool (probeJoin, probeExists).
type HashTable struct {
	pool *vector.Pool

	keys    []*vector.Vec // stored key columns; row id = position
	hashes  []uint64      // per-row hash (pre-filter + directory rebuild)
	next    []int32       // bucket chain link per row; -1 ends a chain
	buckets []int32       // 1-based head row per bucket; 0 = empty
	tails   []int32       // last row per bucket, keeps chains in insertion order
	mask    uint64

	singleI64 bool // exactly one Int64 key: skip the generic verify dispatch
	unique    bool // no two stored rows have equal keys (setUnique)

	memo []int32 // dense path: id per slot, -1 until the slot's first row resolves
}

// minBuckets is the initial directory size (power of two).
const minBuckets = 64

// Dense-path thresholds (see HashTable).
const (
	denseMinRows     = 64 // smaller batches take the hashed path
	denseRowsPerSlot = 8  // at most one slot per this many rows of the batch
)

// NewHashTable returns an empty table for keys of the given kinds. A nil
// pool allocates a private one; passing the operator's pool shares scratch
// buffers between the table and its owner.
func NewHashTable(kinds []vector.Kind, pool *vector.Pool) *HashTable {
	return newHashTable(kinds, pool, 0)
}

// newHashTable is NewHashTable with room for rows rows: the directory,
// hashes, next and the fixed-width key columns take them without growing.
// A join build, which knows its exact row count before it inserts, sizes
// its table once this way.
func newHashTable(kinds []vector.Kind, pool *vector.Pool, rows int) *HashTable {
	if pool == nil {
		pool = &vector.Pool{}
	}
	nb := bucketsFor(rows)
	t := &HashTable{
		pool:      pool,
		singleI64: len(kinds) == 1 && kinds[0] == vector.Int64,
		hashes:    make([]uint64, 0, rows),
		next:      make([]int32, 0, rows),
		buckets:   make([]int32, nb),
		tails:     make([]int32, nb),
		mask:      uint64(nb - 1),
	}
	t.keys = make([]*vector.Vec, len(kinds))
	for i, k := range kinds {
		t.keys[i] = vector.New(k, rows)
	}
	return t
}

// Len returns the number of stored rows (groups / build rows).
func (t *HashTable) Len() int { return len(t.hashes) }

// Keys exposes the stored key columns; aggregation emits its group-by keys
// from them directly instead of keeping a second copy.
func (t *HashTable) Keys() []*vector.Vec { return t.keys }

// Reset empties the table for reuse (tails are read only under a set head).
func (t *HashTable) Reset() {
	for _, k := range t.keys {
		k.Reset()
	}
	t.hashes, t.next = t.hashes[:0], t.next[:0]
	clear(t.buckets)
}

// bucketsFor is the directory size that keeps n rows under a 3/4 load
// factor: a power of two, at least minBuckets.
func bucketsFor(n int) int {
	nb := minBuckets
	for n >= nb*3/4 {
		nb <<= 1
	}
	return nb
}

// reserve grows the bucket directory so n rows stay under a 3/4 load factor,
// rebuilding the chains (in insertion order) from the stored hashes.
func (t *HashTable) reserve(n int) {
	nb := max(bucketsFor(n), len(t.buckets))
	if nb == len(t.buckets) {
		return
	}
	t.buckets = make([]int32, nb)
	t.tails = make([]int32, nb)
	t.mask = uint64(nb - 1)
	for r := range t.hashes {
		t.next[r] = -1
		t.link(t.hashes[r]&t.mask, int32(r))
	}
}

// link appends stored row r at the tail of its bucket chain.
func (t *HashTable) link(b uint64, r int32) {
	if t.buckets[b] == 0 {
		t.buckets[b] = r + 1
	} else {
		t.next[t.tails[b]] = r
	}
	t.tails[b] = r
}

// insertRow stores row r of keyCols under hash h and returns its id.
func (t *HashTable) insertRow(h uint64, keyCols []*vector.Vec, r int) (int32, error) {
	for i, kc := range keyCols {
		if err := t.keys[i].AppendRangeChecked(kc, r, r+1); err != nil {
			return -1, err
		}
	}
	id := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, -1)
	t.link(h&t.mask, id)
	return id, nil
}

// InsertBatch stores all n rows of the dense key columns unconditionally
// (join build side: duplicates become separate rows). Key values are
// bulk-appended column-wise and hashed straight into the stored hashes;
// only the chain linking is per-row. In a table sized for its rows
// (newHashTable) nothing grows. Its error, and FindOrInsert's, is
// vector.ErrStringBytes; the table is then garbage.
func (t *HashTable) InsertBatch(keyCols []*vector.Vec, n int) error {
	for i, kc := range keyCols {
		if err := t.keys[i].AppendRangeChecked(kc, 0, n); err != nil {
			return err
		}
	}
	base := len(t.hashes)
	t.reserve(base + n)
	t.hashes = slices.Grow(t.hashes, n)[:base+n]
	vector.HashCols(t.hashes[base:], keyCols)
	t.next = slices.Grow(t.next, n)[:base+n]
	for r := base; r < base+n; r++ {
		t.next[r] = -1
		t.link(t.hashes[r]&t.mask, int32(r))
	}
	return nil
}

// setUnique records whether no two stored rows have equal keys. Rows with
// equal keys share a hash and so a chain, the later after the earlier: it
// walks each row's chain past the row and compares keys only where the
// stored hashes agree, O(rows × chain) with no second table. A join build
// calls it once, after its last insert; probeJoin over a unique table stops
// each probe row at its first match.
func (t *HashTable) setUnique() {
	t.unique = !t.hasDuplicate()
	if vector.DebugAsserts {
		t.checkUnique()
	}
}

// hasDuplicate reports whether a stored row's key repeats in a later row.
func (t *HashTable) hasDuplicate() bool {
	for r, h := range t.hashes {
		for id := t.next[r]; id >= 0; id = t.next[id] {
			if t.hashes[id] == h && t.rowEq(t.keys, r, id) {
				return true
			}
		}
	}
	return false
}

// checkUnique panics when the unique flag disagrees with a map of the stored
// keys; it runs under vectorh_debug.
func (t *HashTable) checkUnique() {
	//lint:hotpath a vectorh_debug check, compiled out of other builds
	seen := make(map[string]bool, t.Len())
	unique := true
	for r := range t.hashes {
		var key []byte
		for _, k := range t.keys {
			v := k.Get(r)
			if f, ok := v.(float64); ok {
				v = math.Float64bits(f) // the table compares floats bitwise
			}
			key = fmt.Appendf(key, "%#v\x00", v)
		}
		if seen[string(key)] {
			unique = false
			break
		}
		seen[string(key)] = true
	}
	if unique != t.unique {
		panic(fmt.Sprintf("exec: hash table unique=%v, but its %d stored keys say %v", t.unique, t.Len(), unique))
	}
}

// keysMatchKinds reports whether the probe key columns carry the stored key
// kinds. A kind-skewed equi-join (say int32 = int64) is legal SQL here; its
// keys can never compare equal — the former serialized keys produced zero
// matches — so probes must short-circuit instead of reaching the typed
// compare loops.
func (t *HashTable) keysMatchKinds(keyCols []*vector.Vec) bool {
	for c, kc := range keyCols {
		if kc.Kind() != t.keys[c].Kind() {
			return false
		}
	}
	return true
}

// verify computes, for each active position j (probe row sel[j] against
// stored candidate cand[sel[j]]), whether the hash and every key column
// match. It runs column-wise: one kind dispatch per column, then a tight
// compare loop over the active selection.
func (t *HashTable) verify(keyCols []*vector.Vec, hs []uint64, sel, cand []int32, match []bool) {
	for j, r := range sel {
		match[j] = hs[r] == t.hashes[cand[r]]
	}
	if t.singleI64 {
		pv, bv := keyCols[0].Int64s(), t.keys[0].Int64s()
		for j, r := range sel {
			if match[j] && pv[r] != bv[cand[r]] {
				match[j] = false
			}
		}
		return
	}
	for c, kc := range keyCols {
		switch kc.Kind() {
		case vector.Int64:
			pv, bv := kc.Int64s(), t.keys[c].Int64s()
			for j, r := range sel {
				if match[j] && pv[r] != bv[cand[r]] {
					match[j] = false
				}
			}
		case vector.Int32:
			pv, bv := kc.Int32s(), t.keys[c].Int32s()
			for j, r := range sel {
				if match[j] && pv[r] != bv[cand[r]] {
					match[j] = false
				}
			}
		case vector.Float64:
			// Bitwise comparison, matching the hash: NaN keys equal
			// themselves and -0.0 stays distinct from +0.0, exactly like
			// the former byte-serialized keys.
			pv, bv := kc.Float64s(), t.keys[c].Float64s()
			for j, r := range sel {
				if match[j] && math.Float64bits(pv[r]) != math.Float64bits(bv[cand[r]]) {
					match[j] = false
				}
			}
		case vector.String:
			// Stored keys are always value-space; the probe side may carry
			// dictionary codes, verified through the dictionary without
			// materializing the probe vector (the hash kernels guarantee
			// code-form and value-form hashes agree).
			bv := t.keys[c].StrCol()
			if kc.IsDict() {
				codes, vals := kc.DictCodes(), kc.Dict().Values
				for j, r := range sel {
					if match[j] && !eqStr(vals[codes[r]], bv.At(int(cand[r]))) {
						match[j] = false
					}
				}
				continue
			}
			pv := kc.StrCol()
			for j, r := range sel {
				if match[j] && !eqStr(pv.At(int(r)), bv.At(int(cand[r]))) {
					match[j] = false
				}
			}
		case vector.Bool:
			pv, bv := kc.Bools(), t.keys[c].Bools()
			for j, r := range sel {
				if match[j] && pv[r] != bv[cand[r]] {
					match[j] = false
				}
			}
		}
	}
}

// eqStr is a == b with short strings compared inline: string == calls
// memequal, and the call costs more than the compare for the one- to
// four-byte keys of flag and status columns.
func eqStr(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) <= 4 {
		for i := 0; i < len(a); i++ {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return a == b
}

// rowEq reports whether probe row r of keyCols equals stored row id
// (scalar path for inserts).
func (t *HashTable) rowEq(keyCols []*vector.Vec, r int, id int32) bool {
	for c, kc := range keyCols {
		switch kc.Kind() {
		case vector.Int64:
			if kc.Int64s()[r] != t.keys[c].Int64s()[id] {
				return false
			}
		case vector.Int32:
			if kc.Int32s()[r] != t.keys[c].Int32s()[id] {
				return false
			}
		case vector.Float64:
			if math.Float64bits(kc.Float64s()[r]) != math.Float64bits(t.keys[c].Float64s()[id]) {
				return false
			}
		case vector.String:
			// StrAt reads through a probe-side dictionary without
			// materializing; stored keys are value-space.
			if kc.StrAt(r) != t.keys[c].StrAt(int(id)) {
				return false
			}
		case vector.Bool:
			if kc.Bools()[r] != t.keys[c].Bools()[id] {
				return false
			}
		}
	}
	return true
}

// findScalar walks row r's chain and returns the id of its key, or -1.
func (t *HashTable) findScalar(h uint64, keyCols []*vector.Vec, r int) int32 {
	for id := t.buckets[h&t.mask] - 1; id >= 0; id = t.next[id] {
		if t.hashes[id] == h && t.rowEq(keyCols, r, id) {
			return id
		}
	}
	return -1
}

// FindOrInsert maps every one of the n rows of keyCols to the stable id of
// its key, inserting unseen keys (group-by: out[r] is row r's group id).
// out must have length n, and keyCols must carry the table's key kinds —
// unlike probes, inserts come from the same expressions that declared the
// table, so a mismatch is a programming error. A batch whose keys fit a
// small dense domain resolves each distinct key once (findOrInsertDense);
// otherwise the probe phase is batch-at-a-time and only the first
// occurrence of each genuinely new key takes the scalar insert path.
func (t *HashTable) FindOrInsert(keyCols []*vector.Vec, n int, out []int32) error {
	if n >= denseMinRows {
		slot := t.pool.GetSel(n)[:n]
		if slots := denseSlots(keyCols, slot, n/denseRowsPerSlot); slots > 0 {
			err := t.findOrInsertDense(keyCols, slot, slots, out)
			t.pool.PutSel(slot)
			return err
		}
		t.pool.PutSel(slot)
	}
	return t.findOrInsertHashed(keyCols, n, out)
}

// findOrInsertDense resolves a batch whose rows denseSlots numbered: the
// first row of each slot, in row order, is found or inserted through the
// chains — so ids are assigned exactly as the hashed path assigns them —
// and every row takes its slot's id.
func (t *HashTable) findOrInsertDense(keyCols []*vector.Vec, slot []int32, slots int, out []int32) error {
	t.reserve(t.Len() + slots) // at most one new key per slot
	if cap(t.memo) < slots {
		t.memo = make([]int32, max(slots, vector.MaxSize/denseRowsPerSlot))
	}
	memo := t.memo[:slots]
	for i := range memo {
		memo[i] = -1
	}
	for r, s := range slot {
		id := memo[s]
		if id < 0 {
			h := vector.HashRow(keyCols, r)
			if id = t.findScalar(h, keyCols, r); id < 0 {
				var err error
				if id, err = t.insertRow(h, keyCols, r); err != nil {
					return err
				}
			}
			memo[s] = id
		}
		out[r] = id
	}
	return nil
}

// denseSlots numbers every row's key with a slot in [0, slots), the key's
// mixed-radix number over per-column domains local to this batch, and
// returns slots; it returns 0, leaving slot garbage, when no such numbering
// stays within limit slots.
func denseSlots(keyCols []*vector.Vec, slot []int32, limit int) int {
	clear(slot)
	stride := 1 // product of the domains of the columns before this one
	for _, kc := range keyCols {
		budget := limit / stride // the most values this column may take
		var d int
		switch kc.Kind() {
		case vector.Bool:
			if d = 2; budget < d {
				return 0
			}
			st := int32(stride)
			for r, b := range kc.Bools()[:len(slot)] {
				if b {
					slot[r] += st
				}
			}
		case vector.Int64:
			if d = intSlots(kc.Int64s()[:len(slot)], slot, stride, budget); d == 0 {
				return 0
			}
		case vector.Int32:
			if d = intSlots(kc.Int32s()[:len(slot)], slot, stride, budget); d == 0 {
				return 0
			}
		case vector.String:
			if !kc.IsDict() {
				return 0
			}
			if d = kc.Dict().Len(); d > budget {
				return 0
			}
			st := uint32(stride)
			for r, c := range kc.DictCodes()[:len(slot)] {
				slot[r] += int32(c * st)
			}
		default: // Float64 keys always hash
			return 0
		}
		stride *= d
	}
	return stride
}

// intSlots adds stride times each value's offset from the batch minimum to
// slot and returns the number of values in [min, max], or 0 when that
// exceeds budget.
func intSlots[T int32 | int64](vs []T, slot []int32, stride, budget int) int {
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	// The distance in uint64 (sign-extended) is exact for any lo <= hi, so
	// MinInt64 and MaxInt64 in one batch cannot wrap into a small domain.
	span := uint64(hi) - uint64(lo)
	if span >= uint64(budget) {
		return 0
	}
	st, base := int32(stride), uint64(lo)
	for r, v := range vs {
		slot[r] += int32(uint64(v)-base) * st
	}
	return int(span) + 1
}

// findOrInsertHashed is FindOrInsert's general path: hash every row, probe
// batch-at-a-time, insert the unresolved rows one by one.
func (t *HashTable) findOrInsertHashed(keyCols []*vector.Vec, n int, out []int32) (err error) {
	t.reserve(t.Len() + n) // worst case all-new: chains stay valid below
	hs := t.pool.GetHashes(n)
	vector.HashCols(hs, keyCols)

	cand := t.pool.GetSel(n)[:n]
	sel := t.pool.GetSel(n)
	for r := 0; r < n; r++ {
		out[r] = -1
		cand[r] = t.buckets[hs[r]&t.mask] - 1
		if cand[r] >= 0 {
			sel = append(sel, int32(r))
		}
	}
	match := t.pool.GetBools(n)
	for len(sel) > 0 {
		t.verify(keyCols, hs, sel, cand, match)
		live := sel[:0]
		for j, r := range sel {
			if match[j] {
				out[r] = cand[r]
			} else if nx := t.next[cand[r]]; nx >= 0 {
				cand[r] = nx
				live = append(live, r)
			}
		}
		sel = live
	}
	// Unresolved rows hold keys the table did not contain before this batch;
	// insert sequentially, re-probing so duplicates within the batch share
	// one id.
	for r := 0; r < n; r++ {
		if out[r] >= 0 {
			continue
		}
		if g := t.findScalar(hs[r], keyCols, r); g >= 0 {
			out[r] = g
		} else if out[r], err = t.insertRow(hs[r], keyCols, r); err != nil {
			break
		}
	}
	t.pool.PutBools(match)
	t.pool.PutSel(cand, sel)
	t.pool.PutHashes(hs)
	return err
}

// ProbeJoin finds all matching stored rows for each of the n probe rows and
// fills ps/bs with (probe row, stored row) index pairs, grouped by probe row
// in ascending order with matches in insertion order — the emission order of
// the former row-at-a-time implementation. When outer is true, probe rows
// without a match contribute one (row, -1) pair (left outer padding). ps and
// bs must be empty; the grown slices are returned. Its scratch comes from the
// table's pool, so one goroutine probes at a time; probeJoin is the same
// probe with the caller's pool.
func (t *HashTable) ProbeJoin(keyCols []*vector.Vec, n int, ps, bs []int32, outer bool) ([]int32, []int32) {
	return t.probeJoin(t.pool, keyCols, n, ps, bs, outer)
}

// probeJoin is ProbeJoin drawing its scratch from pool. It only reads the
// table, so the streams of a join probe one table at once, each with its
// own pool. Over a unique table (setUnique) each row chases its chain only to
// its first match, which is its only one, and its pair is written at once,
// in row order; otherwise every chain is chased to its end, round-wise, and
// a counting sort puts the pairs in row order.
func (t *HashTable) probeJoin(pool *vector.Pool, keyCols []*vector.Vec, n int, ps, bs []int32, outer bool) ([]int32, []int32) {
	if t.Len() == 0 || !t.keysMatchKinds(keyCols) {
		if !outer {
			return ps, bs
		}
		ps, bs = growSel(ps, n), growSel(bs, n)
		for r := 0; r < n; r++ {
			ps[r], bs[r] = int32(r), -1
		}
		return ps, bs
	}
	hs := pool.GetHashes(n)
	vector.HashCols(hs, keyCols)
	if t.unique {
		var pv, bv []int64 // one Int64 key, compared inline
		if t.singleI64 {
			pv, bv = keyCols[0].Int64s(), t.keys[0].Int64s()
		}
		for r, h := range hs[:n] {
			id := t.buckets[h&t.mask] - 1
			for ; id >= 0; id = t.next[id] {
				if t.hashes[id] == h && (pv != nil && pv[r] == bv[id] || pv == nil && t.rowEq(keyCols, r, id)) {
					break
				}
			}
			if id >= 0 || outer {
				ps, bs = append(ps, int32(r)), append(bs, id)
			}
		}
		pool.PutHashes(hs)
		return ps, bs
	}
	cand := pool.GetSel(n)[:n]
	sel := pool.GetSel(n)
	counts := pool.GetSel(n)[:n]
	for r := 0; r < n; r++ {
		counts[r] = 0
		cand[r] = t.buckets[hs[r]&t.mask] - 1
		if cand[r] >= 0 {
			sel = append(sel, int32(r))
		}
	}
	// Chase every chain to its end, collecting raw pairs round-wise: round k
	// emits each still-active row's k-th chain position if it matches.
	rawP := pool.GetSel(n)
	rawB := pool.GetSel(n)
	match := pool.GetBools(n)
	for len(sel) > 0 {
		t.verify(keyCols, hs, sel, cand, match)
		live := sel[:0]
		for j, r := range sel {
			if match[j] {
				rawP = append(rawP, r)
				rawB = append(rawB, cand[r])
				counts[r]++
			}
			if nx := t.next[cand[r]]; nx >= 0 {
				cand[r] = nx
				live = append(live, r)
			}
		}
		sel = live
	}
	// Scatter the round-ordered pairs into probe-row order via a counting
	// sort: off[r] is row r's first output slot and advances as it fills, so
	// within a row the chain (insertion) order is preserved.
	total := len(rawP)
	if outer {
		for r := 0; r < n; r++ {
			if counts[r] == 0 {
				total++
			}
		}
	}
	ps, bs = growSel(ps, total), growSel(bs, total)
	off := cand // reuse: candidate cursor is spent
	sum := int32(0)
	for r := 0; r < n; r++ {
		c := counts[r]
		if outer && c == 0 {
			c = 1
		}
		off[r] = sum
		sum += c
	}
	if outer {
		for r := 0; r < n; r++ {
			if counts[r] == 0 {
				ps[off[r]], bs[off[r]] = int32(r), -1
			}
		}
	}
	for i, r := range rawP {
		o := off[r]
		off[r] = o + 1
		ps[o], bs[o] = r, rawB[i]
	}
	pool.PutBools(match)
	pool.PutSel(sel, counts, rawP, rawB, off)
	pool.PutHashes(hs)
	return ps, bs
}

// probeExists appends to sel, in row order, the probe rows that do
// (want=true: semi join) or do not (want=false: anti join) have a matching
// stored row; chains stop chasing at the first match. Like probeJoin it only
// reads the table and takes its scratch from pool.
func (t *HashTable) probeExists(pool *vector.Pool, keyCols []*vector.Vec, n int, want bool, sel []int32) []int32 {
	if t.Len() == 0 || !t.keysMatchKinds(keyCols) {
		if !want {
			for r := 0; r < n; r++ {
				sel = append(sel, int32(r))
			}
		}
		return sel
	}
	hs := pool.GetHashes(n)
	vector.HashCols(hs, keyCols)
	cand := pool.GetSel(n)[:n]
	active := pool.GetSel(n)
	for r := 0; r < n; r++ {
		cand[r] = t.buckets[hs[r]&t.mask] - 1
		if cand[r] >= 0 {
			active = append(active, int32(r))
		}
	}
	found := pool.GetBools(n)
	match := pool.GetBools(n)
	for len(active) > 0 {
		t.verify(keyCols, hs, active, cand, match)
		live := active[:0]
		for j, r := range active {
			if match[j] {
				found[r] = true
			} else if nx := t.next[cand[r]]; nx >= 0 {
				cand[r] = nx
				live = append(live, r)
			}
		}
		active = live
	}
	for r := 0; r < n; r++ {
		if found[r] == want {
			sel = append(sel, int32(r))
		}
	}
	pool.PutBools(found)
	pool.PutBools(match)
	pool.PutSel(cand, active)
	pool.PutHashes(hs)
	return sel
}

// growSel resizes a pooled int32 buffer to length n, reallocating only when
// capacity is exceeded.
func growSel(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
