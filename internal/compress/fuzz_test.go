package compress

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzCompressRoundTrip drives every block codec with arbitrary inputs.
// Two properties are enforced:
//
//  1. encode→decode is the identity — for PFOR and PFOR-DELTA over the
//     derived integers, and for PDICT over the derived strings through
//     both public entry points (DecodeStringsScratch, and the
//     PDictOpen/Codes/Materialize path the scanner uses);
//  2. decoding arbitrarily mutated bytes, and the input itself taken as a
//     block, must fail cleanly — an error or wrong values, never a panic or
//     out-of-bounds access — and allocate in proportion to the bytes in and
//     the values out, never to a count a header claims;
//  3. every encoder is byte-equal to its reference in reference_test.go —
//     the exact frame search, the size-based scheme choices and the
//     word-wise bit packer must not change one encoded byte — and so is
//     the LZ decoder's output, or both fail, on every mutated block.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(3), byte(0x80))
	f.Add([]byte("abcabcabcabcabcabc\x00\xff\x7fabc"), uint16(17), byte(1))
	ramp := make([]byte, 0, 256)
	for i := 0; i < 32; i++ {
		ramp = append(ramp, byte(i), 0, 0, 0, 0, 0, 0, byte(i%5))
	}
	f.Add(ramp, uint16(100), byte(0xff))

	f.Fuzz(func(t *testing.T, data []byte, mutPos uint16, mutXor byte) {
		var s Scratch

		// Integers: 8 input bytes per value.
		n := len(data) / 8
		if n > 4096 {
			n = 4096
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}

		encPFOR := PFOREncode(vals)
		if !bytes.Equal(encPFOR, refPFOREncode(vals)) {
			t.Fatal("PFOREncode differs from the reference encoder")
		}
		var e Encoder
		if !bytes.Equal(e.AppendInts(nil, vals), refEncodeInts(vals)) {
			t.Fatal("AppendInts differs from encode-both-keep-smaller")
		}
		got, err := PFORDecodeScratch(encPFOR, nil, &s)
		if err != nil {
			t.Fatalf("PFOR decode of own encoding: %v", err)
		}
		eqI64(t, "PFOR", vals, got)

		encDelta := PFORDeltaEncode(vals)
		if !bytes.Equal(encDelta, refPFORDeltaEncode(vals)) {
			t.Fatal("PFORDeltaEncode differs from the reference encoder")
		}
		got, err = PFORDeltaDecodeScratch(encDelta, nil, &s)
		if err != nil {
			t.Fatalf("PFOR-DELTA decode of own encoding: %v", err)
		}
		eqI64(t, "PFOR-DELTA", vals, got)

		// Strings: variable-length chunks of the input bytes.
		var strs []string
		for rest := data; len(rest) > 0 && len(strs) < 4096; {
			w := int(rest[0]%13) + 1
			if w > len(rest) {
				w = len(rest)
			}
			strs = append(strs, string(rest[:w]))
			rest = rest[w:]
		}

		encDict := PDictEncode(strs)
		if !bytes.Equal(encDict, refPDictEncode(strs)) {
			t.Fatal("PDictEncode differs from the reference encoder")
		}
		gotS, err := PDictDecodeScratch(encDict, nil, &s)
		if err != nil {
			t.Fatalf("PDICT decode of own encoding: %v", err)
		}
		eqStr(t, "PDICT", strs, gotS)
		pd, err := PDictOpen(encDict)
		if err != nil {
			t.Fatalf("PDictOpen of own encoding: %v", err)
		}
		if pd.Rows() != len(strs) {
			t.Fatalf("PDictOpen rows = %d, want %d", pd.Rows(), len(strs))
		}
		codes, err := pd.Codes()
		if err != nil {
			t.Fatalf("Codes of own encoding: %v", err)
		}
		for i, c := range codes {
			if pd.Dict.Values[c] != strs[i] {
				t.Fatalf("code[%d] maps to %q, want %q", i, pd.Dict.Values[c], strs[i])
			}
		}
		mat, err := materializeAll(pd)
		if err != nil {
			t.Fatalf("Materialize of own encoding: %v", err)
		}
		eqStr(t, "PDICT materialize", strs, mat)

		col := StrColOf(strs)
		encAuto := e.AppendStrings(nil, &col)
		if !bytes.Equal(encAuto, refEncodeStrings(strs)) {
			t.Fatal("AppendStrings differs from the reference EncodeStrings")
		}
		gotS, err = decodeAll(encAuto, &s)
		if err != nil {
			t.Fatalf("EncodeStrings decode of own encoding: %v", err)
		}
		eqStr(t, "EncodeStrings", strs, gotS)

		// Mutated bytes: every decoder over every (corrupted) encoding must
		// fail cleanly. Values may be wrong — the mutation can land in a
		// payload byte — but nothing may panic. The LZ decoder must agree
		// with its byte-wise reference on every block taken as a stream,
		// and on a raw+LZ block's stream.
		for _, enc := range [][]byte{encPFOR, encDelta, encDict, encAuto, data} {
			if len(enc) == 0 {
				continue
			}
			m := bytes.Clone(enc)
			m[int(mutPos)%len(m)] ^= mutXor
			for _, blk := range [][]byte{m, enc} {
				lzAgree(t, blk)
				if blk[0] == tagRawString {
					if _, sz := binary.Uvarint(blk[1:]); sz > 0 {
						lzAgree(t, blk[1+sz:])
					}
				}
				var out int
				alloc := allocBytes(func() { out = decodeEverything(blk) })
				if limit := 1<<20 + 1024*len(blk) + 8*out; alloc > uint64(limit) {
					t.Fatalf("decoding %d hostile bytes into %d bytes of values allocated %d bytes", len(blk), out, alloc)
				}
			}
		}
	})
}

// decodeEverything runs every decoder over blk, with a fresh scratch so the
// staging buffers count, and returns the bytes of values they produced.
func decodeEverything(blk []byte) (out int) {
	var s Scratch
	if v, err := PFORDecodeScratch(blk, nil, &s); err == nil {
		out += 8 * len(v)
	}
	if v, err := PFORDeltaDecodeScratch(blk, nil, &s); err == nil {
		out += 8 * len(v)
	}
	if c, err := DecodeStringsScratch(blk, &s); err == nil {
		out += c.ValueBytes() + 4*c.Len()
	}
	if pb, err := PDictOpen(blk); err == nil {
		if codes, err := pb.Codes(); err == nil {
			c, _ := pb.Materialize()
			out += 4*len(codes) + c.ValueBytes() + 4*c.Len()
		}
	}
	return out
}

// allocBytes returns the bytes of heap memory f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func eqI64(t *testing.T, what string, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func eqStr(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: [%d] = %q, want %q", what, i, got[i], want[i])
		}
	}
}
