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

// PFORDecode decompresses a PFOREncode block, appending to dst. The codes
// inflate straight into dst, so a decode into a destination with room
// allocates nothing.
func PFORDecode(data []byte, dst []int64) ([]int64, error) {
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
	return decodePatched(body[sz:], int(n), dst)
}

// PFORDecodeScratch is PFORDecode; the scratch goes unused. It stays for
// the layer benchmark in bench/, which calls it.
func PFORDecodeScratch(data []byte, dst []int64, _ *Scratch) ([]int64, error) {
	return PFORDecode(data, dst)
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

// PFORDeltaDecode decompresses a PFORDeltaEncode block, appending to dst;
// like PFORDecode it stages nothing.
func PFORDeltaDecode(data []byte, dst []int64) ([]int64, error) {
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
	// The deltas decode into their place in dst, and a running sum turns
	// them into values there: the first delta slot holds the first value.
	base := len(dst)
	dst, err := decodePatched(body[sz:], int(n), dst)
	if err != nil {
		return nil, err
	}
	out := dst[base:]
	acc := first
	out[0] = acc
	for i := 1; i < len(out); i++ {
		acc += out[i]
		out[i] = acc
	}
	return dst, nil
}

// PFORDeltaDecodeScratch is PFORDeltaDecode; the scratch goes unused. It
// stays for the layer benchmark in bench/, which calls it.
func PFORDeltaDecodeScratch(data []byte, dst []int64, _ *Scratch) ([]int64, error) {
	return PFORDeltaDecode(data, dst)
}

// decodePatched performs two-phase patched decompression of n symbols,
// appending them to dst: phase one inflates every code straight into dst
// with the frame reference added; phase two hops the exception chain, whose
// links are the codes of the slots it patches (out[cur]-ref), and patches.
func decodePatched(body []byte, n int, dst []int64) ([]int64, error) {
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
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	unpackBits(out, body[:need], w, uint64(ref))
	body = body[need:]

	cur := fe
	for range ne {
		v, sz := binary.Varint(body)
		if sz <= 0 || cur >= uint64(n) {
			return nil, ErrCorrupt
		}
		body = body[sz:]
		link := uint64(out[cur]) - uint64(ref)
		out[cur] = v
		cur += min(link, uint64(n)-cur) + 1 // saturates past n, as in PDictOpen
	}
	return dst, nil
}
