package compress

import (
	"encoding/binary"
	"math"
	"slices"
)

// LZCompress is a small byte-oriented LZ77 compressor in the spirit of
// Snappy/LZ4: greedy hash-table matching on 4-byte windows, varint-coded
// copy offsets, no entropy stage. It stands in for the general-purpose
// compressors the paper discusses (Snappy in ORC/Parquet, LZ4 in VectorH).
//
// Format: uvarint(decompressed length) followed by tokens. A token control
// byte c encodes a literal run of (c>>1)+1 bytes when c&1 == 0, or a match
// of length (c>>1)+minMatch with a following uvarint back-offset when
// c&1 == 1.
func LZCompress(src []byte) []byte {
	out, _ := lzAppend(nil, src, math.MaxInt)
	return out
}

// lzAppend appends the LZCompress image of src to out. It gives up and
// reports false as soon as the image reaches limit bytes — the caller only
// wants it when it is smaller than an alternative it already sized.
func lzAppend(out, src []byte, limit int) ([]byte, bool) {
	const (
		minMatch   = 4
		maxLiteral = 128
		maxMatch   = 127 + minMatch
		hashBits   = 14
	)
	start := len(out)
	out = binary.AppendUvarint(out, uint64(len(src)))
	var table [1 << hashBits]int32 // position+1 of the last occurrence; 0 = none
	hash := func(p int) uint32 {
		return (binary.LittleEndian.Uint32(src[p:]) * 2654435761) >> (32 - hashBits)
	}
	emitLiterals := func(lo, hi int) {
		for lo < hi {
			run := min(hi-lo, maxLiteral)
			out = append(out, byte((run-1)<<1))
			out = append(out, src[lo:lo+run]...)
			lo += run
		}
	}
	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash(i)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		// Extend the match.
		length := minMatch
		for i+length < len(src) && length < maxMatch && src[cand+length] == src[i+length] {
			length++
		}
		emitLiterals(litStart, i)
		out = append(out, byte((length-minMatch)<<1|1))
		out = binary.AppendUvarint(out, uint64(i-cand))
		i += length
		litStart = i
		if len(out)-start >= limit {
			return out, false
		}
	}
	emitLiterals(litStart, len(src))
	return out, len(out)-start < limit
}

// LZDecompress inverts LZCompress.
func LZDecompress(src []byte) ([]byte, error) { return lzDecompress(nil, src) }

// lzDecompress appends the bytes src decompresses to to dst[:0], growing it
// at most once.
func lzDecompress(dst, src []byte) ([]byte, error) {
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
