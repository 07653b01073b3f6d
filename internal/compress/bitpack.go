// Package compress implements the lightweight column compression schemes of
// Vectorwise/VectorH — PFOR, PFOR-DELTA and PDICT ("patched" schemes, [28] in
// the paper) — together with the bit-packing primitives they share and a
// small LZ77 byte compressor that stands in for Snappy/LZ4 where the paper
// uses general-purpose compression (string columns in VectorH, everything in
// the simulated Parquet/ORC formats).
//
// The patched schemes store values as thin fixed-bit-width codes. Values that
// do not fit the chosen width become "exceptions": their code slot holds the
// distance to the next exception (a linked list threaded through the codes)
// and the real value is stored verbatim after the packed section. Decoding is
// two-phase, exactly as described in §2 of the paper: phase one inflates all
// codes with a tight branch-free loop; phase two hops along the exception
// chain and patches the escaped values.
package compress

import (
	"encoding/binary"
	"slices"
)

// packBits appends the low `width` bits of each value to dst as a
// little-endian bit stream. width must be in [0, 64].
func packBits(dst []byte, vals []uint64, width int) []byte {
	if width == 0 || len(vals) == 0 {
		return dst
	}
	total := (len(vals)*width + 7) / 8
	start := len(dst)
	dst = slices.Grow(dst, total)[:start+total]
	buf := dst[start:]
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<uint(width) - 1
	}
	// Values gather in a 64-bit accumulator that is stored whole each time
	// it fills; every byte of buf is written exactly once.
	var acc uint64
	nbits, pos := 0, 0
	for _, v := range vals {
		v &= mask
		acc |= v << uint(nbits)
		if nbits += width; nbits >= 64 {
			binary.LittleEndian.PutUint64(buf[pos:], acc)
			pos += 8
			nbits -= 64
			acc = v >> uint(width-nbits) // the bits of v that did not fit
		}
	}
	for ; nbits > 0; nbits -= 8 {
		buf[pos] = byte(acc)
		acc >>= 8
		pos++
	}
	return dst
}

// unpackBits fills dst with the width-bit values packed in src, each plus
// ref (modulo 2^64): the phase-one "inflate" loop of patched decompression,
// with the frame of reference added as the codes inflate. A code of at most
// 56 bits lies within the 8 bytes from its first one, so it is one
// unaligned 8-byte load, a shift and a mask, with no branch on data; only
// the last codes, whose 8 bytes would run past src, and wider codes go byte
// by byte. Dictionary codes unpack as uint32, half the staging memory.
func unpackBits[T uint32 | uint64 | int64](dst []T, src []byte, width int, ref uint64) {
	if width == 0 {
		for i := range dst {
			dst[i] = T(ref)
		}
		return
	}
	fast := 0
	if width <= 56 && len(src) >= 8 {
		// Code i's load starts at byte i*width/8, which must be <= len(src)-8.
		fast = min(len(dst), ((len(src)-7)*8-1)/width+1)
	}
	w, mask := uint(width), uint64(1)<<uint(width)-1
	for i := range dst[:fast] {
		bit := uint(i) * w
		dst[i] = T(binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask + ref)
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = T(unpackOne(src, i, width) + ref)
	}
}

// unpackOne extracts the width-bit value at index idx of a packed stream
// without unpacking its neighbors — random access for exception-chain hops.
func unpackOne(src []byte, idx, width int) uint64 {
	if width == 0 {
		return 0
	}
	bitoff := idx * width
	var v uint64
	got, rem := 0, width
	for rem > 0 {
		byteIdx := bitoff >> 3
		bitIdx := bitoff & 7
		take := 8 - bitIdx
		if take > rem {
			take = rem
		}
		var b byte
		if byteIdx < len(src) {
			b = src[byteIdx]
		}
		bits := uint64(b>>uint(bitIdx)) & (1<<uint(take) - 1)
		v |= bits << uint(got)
		got += take
		bitoff += take
		rem -= take
	}
	return v
}

// bitsFor returns the minimal width able to represent v (0 for v == 0).
func bitsFor(v uint64) int {
	w := 0
	for v != 0 {
		w++
		v >>= 1
	}
	return w
}

// zigzag maps signed to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
