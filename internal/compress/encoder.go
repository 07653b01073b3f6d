package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Encoder is the staging memory of the write side — the sorted copy the
// frame choice reads, code and delta arrays, exception plans, the
// dictionary build — so a long-lived caller (one colstore.Appender) encodes
// block after block without allocating. The zero value is ready to use; an
// Encoder is not safe for concurrent use. Its output is byte-identical to
// the one-shot functions (PFOREncode, PDictEncode, EncodeStrings, ...),
// which are this type with a throwaway instance.
type Encoder struct {
	// Frame choice: the block's distinct values ascending, and how many
	// values lie below each (below[len(distinct)] = n).
	distinct []int64
	below    []int
	counts   []int32 // counting-sort histogram, dense domains only

	deltas       []int64
	plain, delta patched // the PFOR and PFOR-DELTA candidates; plain also stages PDICT codes

	// String side (pdict.go).
	index   dictIndex
	entries []dictEntry // the block's distinct values; ordered is its spare for reordering
	ordered []dictEntry
	ids     []uint32 // per value, its entry id
	rank    []uint32 // entry id -> dictionary code
	raw, lz []byte   // length-prefixed values and their LZ image
}

// patched is one planned patched block: the frame, every value's code, the
// exception chain (forced links included) and the exact number of bytes
// emit will write.
type patched struct {
	ref   int64
	w     int
	codes []uint64
	plan  []int
	size  int
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(zigzag(v)) }

// AppendInts appends the smaller of the PFOR and PFOR-DELTA encodings of
// vals (PFOR on a tie) to out. The choice is made on the two exact encoded
// sizes, computed from the frames and exception plans alone; only the winner
// is bit-packed.
func (e *Encoder) AppendInts(out []byte, vals []int64) []byte {
	if len(vals) == 0 {
		return append(out, tagPFOR, 0)
	}
	e.planPatched(&e.plain, vals)
	e.planPatched(&e.delta, e.deltasOf(vals))
	// Both blocks open with a tag and the row count; the delta block also
	// stores the first value.
	if varintLen(vals[0])+e.delta.size < e.plain.size {
		return e.emitDelta(out, vals)
	}
	return e.emitPlain(out, vals)
}

// emitPlain appends the PFOR block planned in e.plain for vals.
func (e *Encoder) emitPlain(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(append(out, tagPFOR), uint64(len(vals)))
	return e.plain.emit(out, vals)
}

// emitDelta appends the PFOR-DELTA block planned in e.delta over
// deltasOf(vals).
func (e *Encoder) emitDelta(out []byte, vals []int64) []byte {
	out = binary.AppendUvarint(append(out, tagPFORDelta), uint64(len(vals)))
	out = binary.AppendVarint(out, vals[0])
	return e.delta.emit(out, e.deltas)
}

// deltasOf returns vals[i]-vals[i-1] (0 at i = 0) in the encoder's delta
// buffer. The subtraction wraps; decode wraps identically.
func (e *Encoder) deltasOf(vals []int64) []int64 {
	e.deltas = grow(e.deltas, len(vals))
	e.deltas[0] = 0
	for i := 1; i < len(vals); i++ {
		e.deltas[i] = vals[i] - vals[i-1]
	}
	return e.deltas
}

// chooseRefWidth picks the frame base and code width minimizing the
// estimated encoded size: ⌈n·w/8⌉ packed bytes plus maxExcBytes for every
// value outside the best window [ref, ref+2^w) — the narrowest width on a
// tie, the lowest base among a width's best windows. The search is exact
// but visits few widths: at w = bitsFor(max-min) the frame based at the
// minimum holds everything, and no wider code can cost less; below that it
// walks down while narrower frames can still win — exceptions only grow as
// the frame narrows, so once they alone cost more than the best candidate,
// every remaining width does too.
func (e *Encoder) chooseRefWidth(vals []int64) (ref int64, width int) {
	n := len(vals)
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi) - uint64(lo) // hi >= lo, so exact for any int64 pair
	ref, width = lo, bitsFor(span)
	if width == 0 {
		return ref, 0
	}
	bestCost := (n*width + 7) / 8
	e.sortDistinct(vals, lo, span)
	d, below := e.distinct, e.below
	for w := width - 1; w >= 0; w-- {
		limit := uint64(1) << uint(w)
		// Two-pointer max-coverage window [d[i], d[i]+2^w).
		maxIn, bestLo := 0, d[0]
		j := 0
		for i := range d {
			for j < len(d) && uint64(d[j])-uint64(d[i]) < limit {
				j++
			}
			if in := below[j] - below[i]; in > maxIn {
				maxIn, bestLo = in, d[i]
			}
			if j == len(d) {
				break
			}
		}
		exc := (n - maxIn) * maxExcBytes
		if cost := (n*w+7)/8 + exc; cost <= bestCost {
			bestCost, ref, width = cost, bestLo, w
		}
		if exc > bestCost {
			break
		}
	}
	return ref, width
}

// sortDistinct fills e.distinct/e.below from vals: a counting sort when the
// value domain is dense (span within a small multiple of n — quantities,
// dates, flags, deltas of sorted keys), a comparison sort otherwise.
func (e *Encoder) sortDistinct(vals []int64, lo int64, span uint64) {
	n := len(vals)
	e.below = e.below[:0]
	if span <= 4*uint64(n) && n <= math.MaxInt32 {
		counts := grow(e.counts, int(span)+1)
		e.counts = counts
		clear(counts)
		for _, v := range vals {
			counts[uint64(v)-uint64(lo)]++
		}
		d, seen := e.distinct[:0], 0
		for i, c := range counts {
			if c != 0 {
				d = append(d, lo+int64(i))
				e.below = append(e.below, seen)
				seen += int(c)
			}
		}
		e.distinct = d
	} else {
		d := append(e.distinct[:0], vals...)
		slices.Sort(d)
		k := 0
		for i, v := range d {
			if i == 0 || v != d[k-1] {
				d[k] = v
				k++
				e.below = append(e.below, i)
			}
		}
		e.distinct = d[:k]
	}
	e.below = append(e.below, n)
}

// planPatched chooses the frame for vals and derives codes, exception chain
// and exact encoded size into p, without packing a bit.
func (e *Encoder) planPatched(p *patched, vals []int64) {
	n := len(vals)
	p.ref, p.w = e.chooseRefWidth(vals)
	p.codes = grow(p.codes, n)
	for i, v := range vals {
		p.codes[i] = uint64(v) - uint64(p.ref)
	}
	p.plan = exceptionPlan(p.plan[:0], p.codes, p.w)
	if p.w == 0 && len(p.plan) > 0 {
		// A zero-width code cannot thread the exception chain.
		p.w = 1
		p.plan = exceptionPlan(p.plan[:0], p.codes, 1)
	}
	p.size = varintLen(p.ref) + 1 + p.chainLen(n)
	for _, pos := range p.plan {
		p.size += varintLen(vals[pos])
	}
}

// chainLen is the encoded size of the chain header and the packed codes of
// an n-value block.
func (p *patched) chainLen(n int) int {
	firstExc := n
	if len(p.plan) > 0 {
		firstExc = p.plan[0]
	}
	return uvarintLen(uint64(firstExc)) + uvarintLen(uint64(len(p.plan))) + (n*p.w+7)/8
}

// exceptionPlan appends the ordered exception positions for the given codes
// and width to plan, inserting forced exceptions so that consecutive chain
// gaps stay representable in w bits (gap ∈ [1, 2^w]). At w == 0 no chain
// can be threaded: only the real exceptions are listed and the caller bumps
// the width.
func exceptionPlan(plan []int, codes []uint64, w int) []int {
	if w >= 64 {
		return plan
	}
	limit := uint64(1) << uint(w)
	maxGap := len(codes) // no gap is longer, whatever the width
	if limit < uint64(maxGap) {
		maxGap = int(limit)
	}
	prev := -1
	for i, c := range codes {
		if c < limit {
			continue
		}
		if prev >= 0 && w > 0 {
			for i-prev > maxGap {
				prev += maxGap
				plan = append(plan, prev) // forced exception
			}
		}
		plan = append(plan, i)
		prev = i
	}
	return plan
}

// appendChain threads the exception chain through the codes — an exception
// slot carries the distance to the next one instead of a code; the codes
// are staging memory, so they are patched in place — and appends the chain
// header and the packed codes of an n-value block.
func (p *patched) appendChain(out []byte, n int) []byte {
	firstExc := n
	if len(p.plan) > 0 {
		firstExc = p.plan[0]
	}
	for j, pos := range p.plan {
		gap := 1
		if j+1 < len(p.plan) {
			gap = p.plan[j+1] - pos
		}
		p.codes[pos] = uint64(gap - 1)
	}
	out = binary.AppendUvarint(out, uint64(firstExc))
	out = binary.AppendUvarint(out, uint64(len(p.plan)))
	return packBits(out, p.codes, p.w)
}

// emit appends ref, width, the exception chain header, packed codes and
// exception values of a planned block.
func (p *patched) emit(out []byte, vals []int64) []byte {
	out = binary.AppendVarint(out, p.ref)
	out = append(out, byte(p.w))
	out = p.appendChain(out, len(vals))
	for _, pos := range p.plan {
		out = binary.AppendVarint(out, vals[pos])
	}
	return out
}
