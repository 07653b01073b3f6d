package compress

import (
	"encoding/binary"
	"math"
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

// lzSlack is the room lzDecompress keeps past the declared length, so that
// a short literal run or match moves as two 8-byte words whatever its length.
const lzSlack = 16

// lzPeriods[off] is the least multiple of off that is at least 8.
var lzPeriods = [8]int{1: 8, 2: 8, 3: 9, 4: 8, 5: 10, 6: 12, 7: 14}

// lzDecompress decodes src into dst's storage, growing it at most once to
// the declared length plus lzSlack, and returns the decoded bytes. Copies go
// a machine word at a time: a literal run of at most 16 bytes and a match of
// at most 16 bytes whose offset is at least 8 as two 8-byte loads and
// stores, a longer match with such an offset in 8-byte steps. A match with
// an offset below 8 reads bytes it writes: it goes byte by byte for a whole
// number of its periods, 8 to 14 bytes, and in 8-byte steps after that. A
// copy may write past its own end, into bytes the next token overwrites or
// the slack; no byte past the declared length is returned.
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
	// satisfies this. A corrupted length either fails here or when a token
	// would run past it or the stream ends short of it.
	if n > uint64(len(src))*131 {
		return nil, ErrCorrupt
	}
	size := int(n)
	out := dst[:cap(dst)]
	if len(out) < size+lzSlack {
		out = make([]byte, size+lzSlack)
	}
	d, s := 0, 0
	for s < len(src) {
		c := src[s]
		s++
		if c&1 == 0 {
			run := int(c>>1) + 1
			if len(src)-s < run || size-d < run {
				return nil, ErrCorrupt
			}
			if run <= 16 && len(src)-s >= 16 {
				binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(src[s:]))
				binary.LittleEndian.PutUint64(out[d+8:], binary.LittleEndian.Uint64(src[s+8:]))
			} else {
				copy(out[d:d+run], src[s:s+run])
			}
			d += run
			s += run
			continue
		}
		length := int(c>>1) + minMatch
		// The offset is a uvarint of one or two bytes, read without a
		// branch on which: k is 1 when the first byte continues.
		var off int
		if s+1 < len(src) && src[s]&src[s+1] < 0x80 {
			b0, b1 := int(src[s]), int(src[s+1])
			k := b0 >> 7
			off = b0&0x7f | b1<<7&-k
			s += 1 + k
		} else {
			o, sz := binary.Uvarint(src[s:])
			if sz <= 0 || o > uint64(d) {
				return nil, ErrCorrupt
			}
			off = int(o)
			s += sz
		}
		if off == 0 || off > d || size-d < length {
			return nil, ErrCorrupt
		}
		from := d - off
		switch {
		case off < 8:
			// The match repeats its first off bytes. Write them byte by
			// byte up to a whole number of periods of at least 8 bytes,
			// then copy 8-byte words from that far back: bytes the match
			// has already written, equal by the period.
			step := lzPeriods[off]
			j := 0
			for ; j < length && j < step; j++ {
				out[d+j] = out[from+j]
			}
			for ; j < length; j += 8 {
				binary.LittleEndian.PutUint64(out[d+j:], binary.LittleEndian.Uint64(out[d+j-step:]))
			}
		case length <= 16:
			binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(out[from:]))
			binary.LittleEndian.PutUint64(out[d+8:], binary.LittleEndian.Uint64(out[from+8:]))
		default:
			for j := 0; j < length; j += 8 {
				binary.LittleEndian.PutUint64(out[d+j:], binary.LittleEndian.Uint64(out[from+j:]))
			}
		}
		d += length
	}
	if d != size {
		return nil, ErrCorrupt
	}
	return out[:size], nil
}
