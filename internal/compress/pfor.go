package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Scheme tags stored as the first byte of every encoded block.
const (
	tagPFOR      = 1
	tagPFORDelta = 2
	tagPDict     = 3
	tagRawString = 4
)

// ErrCorrupt reports an undecodable compressed block.
var ErrCorrupt = errors.New("compress: corrupt block")

// maxExcBytes is the amortized cost estimate of one exception (chain slot
// wasted + varint value) used when choosing the code width.
const maxExcBytes = 6

// PFOREncode compresses integers with Patched Frame-Of-Reference: values are
// coded as fixed-width offsets from a block-dependent base; outliers on
// either side of the frame become patched exceptions. Arithmetic is modulo
// 2^64, so any int64 round-trips exactly.
func PFOREncode(vals []int64) []byte {
	if len(vals) == 0 {
		return []byte{tagPFOR, 0}
	}
	var e Encoder
	e.planPatched(&e.plain, vals)
	return e.emitPlain(nil, vals)
}

// PFORDecode decompresses a PFOREncode block, appending to dst.
func PFORDecode(data []byte, dst []int64) ([]int64, error) {
	return PFORDecodeScratch(data, dst, nil)
}

// PFORDecodeScratch is PFORDecode with caller-owned staging buffers, so a
// long-lived scanner stops re-allocating the code array per block.
func PFORDecodeScratch(data []byte, dst []int64, s *Scratch) ([]int64, error) {
	if len(data) < 2 || data[0] != tagPFOR {
		return nil, fmt.Errorf("%w: expected PFOR", ErrCorrupt)
	}
	body := data[1:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 || n > maxDecodeRows {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return dst, nil
	}
	return decodePatched(body[sz:], int(n), dst, s)
}

// PFORDeltaEncode compresses integers by delta-encoding consecutive values
// and applying the patched FOR machinery to the deltas; sorted or
// near-sorted runs (keys, dates) become dramatically cheaper. This is the
// scheme Lucene adopted for its inverted index.
func PFORDeltaEncode(vals []int64) []byte {
	if len(vals) == 0 {
		return []byte{tagPFORDelta, 0}
	}
	var e Encoder
	e.planPatched(&e.delta, e.deltasOf(vals))
	return e.emitDelta(nil, vals)
}

// PFORDeltaDecode decompresses a PFORDeltaEncode block, appending to dst.
func PFORDeltaDecode(data []byte, dst []int64) ([]int64, error) {
	return PFORDeltaDecodeScratch(data, dst, nil)
}

// PFORDeltaDecodeScratch is PFORDeltaDecode with caller-owned staging
// buffers for the delta and code arrays.
func PFORDeltaDecodeScratch(data []byte, dst []int64, s *Scratch) ([]int64, error) {
	if len(data) < 2 || data[0] != tagPFORDelta {
		return nil, fmt.Errorf("%w: expected PFOR-DELTA", ErrCorrupt)
	}
	body := data[1:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 || n > maxDecodeRows {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	if n == 0 {
		return dst, nil
	}
	first, sz := binary.Varint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	deltas, err := decodePatched(body[sz:], int(n), s.deltaBuf(), s)
	if err != nil {
		return nil, err
	}
	if s != nil {
		s.deltas = deltas // keep the grown buffer for the next block
	}
	base := len(dst)
	dst = append(slices.Grow(dst, int(n)), first)
	for i := 1; i < int(n); i++ {
		dst = append(dst, dst[base+i-1]+deltas[i])
	}
	return dst, nil
}

// decodePatched performs two-phase patched decompression of n symbols.
// s may be nil; when set, its staging buffers are reused across calls.
func decodePatched(body []byte, n int, dst []int64, s *Scratch) ([]int64, error) {
	ref, sz := binary.Varint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	if len(body) < 1 {
		return nil, ErrCorrupt
	}
	w := int(body[0])
	body = body[1:]
	fe, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	ne, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	if w > 64 || fe > uint64(n) || !rowsFit(uint64(n), w, body) {
		return nil, ErrCorrupt
	}
	need := (n*w + 7) / 8
	// Every exception value takes at least one byte after the codes: with
	// w == 0 nothing else bounds n, so check before sizing anything by it.
	if len(body) < need || ne > uint64(len(body)-need) {
		return nil, ErrCorrupt
	}
	dst = slices.Grow(dst, n)
	codes := s.u64(n)
	unpackBits(codes, body[:need], n, w)
	body = body[need:]

	// Phase 1: branch-free inflate.
	base := len(dst)
	for _, c := range codes {
		dst = append(dst, int64(uint64(ref)+c))
	}
	// Phase 2: hop the exception chain and patch.
	cur := int(fe)
	out := dst[base:]
	for i := uint64(0); i < ne; i++ {
		v, sz := binary.Varint(body)
		if sz <= 0 {
			return nil, ErrCorrupt
		}
		body = body[sz:]
		if cur >= n {
			return nil, ErrCorrupt
		}
		out[cur] = v
		cur += int(codes[cur]) + 1
	}
	return dst, nil
}
