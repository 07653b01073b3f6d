package compress

import (
	"encoding/binary"
	"slices"
	"sort"
)

// Reference encoders: the write side as it stood before the Encoder — copy +
// sort.Slice + a sweep over all 65 widths, both integer schemes built and the
// smaller kept, PDICT and raw+LZ both built and the smaller kept, byte-wise
// bit packing — kept verbatim (only renamed) as the oracle the differential
// tests and FuzzCompressRoundTrip hold the Encoder's output byte-equal to.
// One reference decoder, refLZDecompress, sits at the end of the file.

// refEncodeInts is colstore.encodeBlock's former integer choice.
func refEncodeInts(vals []int64) []byte {
	p := refPFOREncode(vals)
	pd := refPFORDeltaEncode(vals)
	if len(pd) < len(p) {
		return pd
	}
	return p
}

// refPFOREncode compresses integers with Patched Frame-Of-Reference: values are
// coded as fixed-width offsets from a block-dependent base; outliers on
// either side of the frame become patched exceptions. Arithmetic is modulo
// 2^64, so any int64 round-trips exactly.
func refPFOREncode(vals []int64) []byte {
	out := []byte{tagPFOR}
	out = binary.AppendUvarint(out, uint64(len(vals)))
	if len(vals) == 0 {
		return out
	}
	return refAppendPatched(out, vals)
}

// refPFORDeltaEncode compresses integers by delta-encoding consecutive values
// and applying the patched FOR machinery to the deltas; sorted or
// near-sorted runs (keys, dates) become dramatically cheaper. This is the
// scheme Lucene adopted for its inverted index.
func refPFORDeltaEncode(vals []int64) []byte {
	out := []byte{tagPFORDelta}
	out = binary.AppendUvarint(out, uint64(len(vals)))
	if len(vals) == 0 {
		return out
	}
	out = binary.AppendVarint(out, vals[0])
	deltas := make([]int64, len(vals))
	prev := vals[0]
	for i := 1; i < len(vals); i++ {
		deltas[i] = vals[i] - prev // wrapping; decode wraps identically
		prev = vals[i]
	}
	return refAppendPatched(out, deltas)
}

// refChooseRefWidth picks the frame base and code width minimizing the
// estimated encoded size. For every width it slides a window of 2^w over the
// sorted values to maximize the number of in-frame values; everything
// outside the frame is an exception.
func refChooseRefWidth(vals []int64) (ref int64, width int) {
	sorted := make([]int64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	n := len(vals)
	bestCost := n*9 + 1
	ref, width = sorted[0], 64
	for w := 0; w <= 64; w++ {
		var limit uint64
		all := w == 64
		if !all {
			limit = uint64(1) << uint(w)
		}
		// Two-pointer max-coverage window [sorted[i], sorted[i]+2^w).
		maxIn, bestLo := 0, sorted[0]
		j := 0
		for i := 0; i < n; i++ {
			if j < i {
				j = i
			}
			for j < n && (all || uint64(sorted[j])-uint64(sorted[i]) < limit) {
				j++
			}
			if j-i > maxIn {
				maxIn, bestLo = j-i, sorted[i]
			}
			if j == n {
				break
			}
		}
		cost := (n*w+7)/8 + (n-maxIn)*maxExcBytes
		if cost < bestCost {
			bestCost, ref, width = cost, bestLo, w
		}
	}
	return ref, width
}

// refExceptionPlan returns the ordered exception positions for the given codes
// and width, inserting forced exceptions so that consecutive chain gaps stay
// representable in w bits (gap ∈ [1, 2^w]).
func refExceptionPlan(codes []uint64, w int) []int {
	if w >= 64 {
		return nil
	}
	limit := uint64(1) << uint(w)
	var real []int
	for i, c := range codes {
		if c >= limit {
			real = append(real, i)
		}
	}
	if len(real) == 0 || w == 0 {
		// w == 0 cannot thread a chain; caller bumps the width.
		return real
	}
	maxGap := int(limit)
	plan := make([]int, 0, len(real))
	prev := real[0]
	plan = append(plan, prev)
	for _, p := range real[1:] {
		for p-prev > maxGap {
			prev += maxGap
			plan = append(plan, prev) // forced exception
		}
		plan = append(plan, p)
		prev = p
	}
	return plan
}

// refAppendPatched writes ref, width, the exception chain header, packed codes
// and exception values for the given int64 symbols.
func refAppendPatched(out []byte, vals []int64) []byte {
	ref, w := refChooseRefWidth(vals)
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = uint64(v) - uint64(ref)
	}
	plan := refExceptionPlan(codes, w)
	if w == 0 && len(plan) > 0 {
		w = 1
		plan = refExceptionPlan(codes, w)
	}

	packed := make([]uint64, len(codes))
	copy(packed, codes)
	firstExc := len(vals)
	if len(plan) > 0 {
		firstExc = plan[0]
		for j, p := range plan {
			gap := uint64(1)
			if j+1 < len(plan) {
				gap = uint64(plan[j+1] - p)
			}
			packed[p] = gap - 1
		}
	}
	out = binary.AppendVarint(out, ref)
	out = append(out, byte(w))
	out = binary.AppendUvarint(out, uint64(firstExc))
	out = binary.AppendUvarint(out, uint64(len(plan)))
	out = refPackBits(out, packed, w)
	for _, p := range plan {
		out = binary.AppendVarint(out, vals[p])
	}
	return out
}

// refPDictEncode compresses strings with patched dictionary encoding: frequent
// values get thin fixed-width dictionary codes, infrequent values are stored
// verbatim as exceptions threaded through the code stream.
func refPDictEncode(vals []string) []byte {
	out := []byte{tagPDict}
	out = binary.AppendUvarint(out, uint64(len(vals)))
	if len(vals) == 0 {
		return out
	}

	// Build the dictionary: distinct values by descending frequency,
	// ties broken by first occurrence for determinism.
	type entry struct {
		s     string
		freq  int
		first int
	}
	index := make(map[string]int, 64)
	var entries []entry
	for i, s := range vals {
		if j, ok := index[s]; ok {
			entries[j].freq++
		} else {
			index[s] = len(entries)
			entries = append(entries, entry{s: s, freq: 1, first: i})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].freq != entries[b].freq {
			return entries[a].freq > entries[b].freq
		}
		return entries[a].first < entries[b].first
	})
	if len(entries) > maxDictEntries {
		entries = entries[:maxDictEntries]
	}
	dictIdx := make(map[string]uint64, len(entries))
	for i, e := range entries {
		dictIdx[e.s] = uint64(i)
	}

	w := bitsFor(uint64(len(entries) - 1))
	if w == 0 {
		w = 1
	}
	sentinel := uint64(1) << uint(w)

	codes := make([]uint64, len(vals))
	for i, s := range vals {
		if c, ok := dictIdx[s]; ok {
			codes[i] = c
		} else {
			codes[i] = sentinel
		}
	}
	plan := refExceptionPlan(codes, w)

	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e.s)))
		out = append(out, e.s...)
	}
	out = append(out, byte(w))
	firstExc := len(vals)
	if len(plan) > 0 {
		firstExc = plan[0]
	}
	out = binary.AppendUvarint(out, uint64(firstExc))
	out = binary.AppendUvarint(out, uint64(len(plan)))

	packed := make([]uint64, len(codes))
	copy(packed, codes)
	for j, p := range plan {
		gap := uint64(1)
		if j+1 < len(plan) {
			gap = uint64(plan[j+1] - p)
		}
		packed[p] = gap - 1
	}
	out = refPackBits(out, packed, w)
	for _, p := range plan {
		out = binary.AppendUvarint(out, uint64(len(vals[p])))
		out = append(out, vals[p]...)
	}
	return out
}

// refEncodeStrings picks between PDICT and raw+LZ for a string column chunk:
// PDICT for at most smallDomain distinct values, otherwise whichever is
// smaller — mirroring VectorH, which dictionary-compresses repetitive
// strings and falls back to LZ4 for the rest.
func refEncodeStrings(vals []string) []byte {
	dict := refPDictEncode(vals)
	distinct := map[string]bool{}
	for _, v := range vals {
		distinct[v] = true
	}
	if len(distinct) <= smallDomain {
		return dict
	}
	raw := refRawStringEncode(vals)
	if len(dict) <= len(raw) {
		return dict
	}
	return raw
}

func refRawStringEncode(vals []string) []byte {
	var body []byte
	for _, s := range vals {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	lz := refLZCompress(body)
	out := []byte{tagRawString}
	out = binary.AppendUvarint(out, uint64(len(vals)))
	out = append(out, lz...)
	return out
}

// refLZCompress is a small byte-oriented LZ77 compressor in the spirit of
// Snappy/LZ4: greedy hash-table matching on 4-byte windows, varint-coded
// copy offsets, no entropy stage. It stands in for the general-purpose
// compressors the paper discusses (Snappy in ORC/Parquet, LZ4 in VectorH).
//
// Format: uvarint(decompressed length) followed by tokens. A token control
// byte c encodes a literal run of (c>>1)+1 bytes when c&1 == 0, or a match
// of length (c>>1)+minMatch with a following uvarint back-offset when
// c&1 == 1.
func refLZCompress(src []byte) []byte {
	const (
		minMatch   = 4
		maxLiteral = 128
		maxMatch   = 127 + minMatch
		hashBits   = 14
	)
	out := binary.AppendUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	var table [1 << hashBits]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(p int) uint32 {
		v := uint32(src[p]) | uint32(src[p+1])<<8 | uint32(src[p+2])<<16 | uint32(src[p+3])<<24
		return (v * 2654435761) >> (32 - hashBits)
	}
	emitLiterals := func(lo, hi int) {
		for lo < hi {
			run := hi - lo
			if run > maxLiteral {
				run = maxLiteral
			}
			out = append(out, byte((run-1)<<1))
			out = append(out, src[lo:lo+run]...)
			lo += run
		}
	}
	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash(i)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || int(cand)+minMatch > len(src) ||
			src[cand] != src[i] || src[cand+1] != src[i+1] ||
			src[cand+2] != src[i+2] || src[cand+3] != src[i+3] {
			i++
			continue
		}
		// Extend the match.
		length := minMatch
		for i+length < len(src) && length < maxMatch && src[int(cand)+length] == src[i+length] {
			length++
		}
		emitLiterals(litStart, i)
		out = append(out, byte((length-minMatch)<<1|1))
		out = binary.AppendUvarint(out, uint64(i-int(cand)))
		i += length
		litStart = i
	}
	emitLiterals(litStart, len(src))
	return out
}

// refPackBits appends the low `width` bits of each value to dst as a
// little-endian bit stream. width must be in [0, 64].
func refPackBits(dst []byte, vals []uint64, width int) []byte {
	if width == 0 || len(vals) == 0 {
		return dst
	}
	total := (len(vals)*width + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, total)...)
	buf := dst[start:]
	bitoff := 0
	for _, v := range vals {
		if width < 64 {
			v &= (1 << uint(width)) - 1
		}
		rem := width
		for rem > 0 {
			byteIdx := bitoff >> 3
			bitIdx := bitoff & 7
			take := 8 - bitIdx
			if take > rem {
				take = rem
			}
			buf[byteIdx] |= byte(v << uint(bitIdx))
			v >>= uint(take)
			bitoff += take
			rem -= take
		}
	}
	return dst
}

// refLZDecompress is the byte-at-a-time LZ decoder as it stood before the
// word-wise lzDecompress, kept verbatim (only renamed) as the oracle the LZ
// differential tests and FuzzCompressRoundTrip hold lzDecompress to: the
// same bytes, or both fail.
//
// It appends the bytes src decompresses to to dst[:0], growing it
// at most once.
func refLZDecompress(dst, src []byte) ([]byte, error) {
	const minMatch = 4
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	src = src[sz:]
	// Bound the declared length before trusting it with an allocation: a
	// match token (>=2 stream bytes) expands to at most 131 output bytes
	// and a literal run to at most its own length, so any valid stream
	// satisfies this. A corrupted length either fails here or at the exact
	// check after decoding.
	if n > uint64(len(src))*131 {
		return nil, ErrCorrupt
	}
	out := slices.Grow(dst[:0], int(n))
	for len(src) > 0 {
		c := src[0]
		src = src[1:]
		if c&1 == 0 {
			run := int(c>>1) + 1
			if len(src) < run {
				return nil, ErrCorrupt
			}
			out = append(out, src[:run]...)
			src = src[run:]
			continue
		}
		length := int(c>>1) + minMatch
		off, sz := binary.Uvarint(src)
		if sz <= 0 || off == 0 || off > uint64(len(out)) {
			return nil, ErrCorrupt
		}
		src = src[sz:]
		start := len(out) - int(off)
		if int(off) >= length {
			out = append(out, out[start:start+length]...)
			continue
		}
		for j := 0; j < length; j++ { // self-overlapping: each byte may be one this match wrote
			out = append(out, out[start+j])
		}
	}
	if uint64(len(out)) != n {
		return nil, ErrCorrupt
	}
	return out, nil
}
