package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestBitPackRoundTrip sweeps every width and value counts around the word
// and block edges, with the packed slice exactly as long as the codes
// (no slack to read into): packBits and unpackBits round-trip, and
// unpackBits into uint64, into uint32 (w <= 32, PDICT's codes) and into
// int64 with a frame reference added (PFOR's fused decode) agrees with
// unpackOne.
func TestBitPackRoundTrip(t *testing.T) {
	ref := uint64(0xfff0_0000_0000_1234) // wraps like a negative frame base
	for width := 0; width <= 64; width++ {
		rng := rand.New(rand.NewSource(int64(width)))
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<uint(width) - 1
		}
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1023, 8191} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			packed := slices.Clip(packBits(nil, vals, width))
			if want := (n*width + 7) / 8; len(packed) != want {
				t.Fatalf("w=%d n=%d: packed %d bytes, want %d", width, n, len(packed), want)
			}
			got := make([]int64, n)
			unpackBits(got, packed, width, 0)
			frame := make([]int64, n)
			unpackBits(frame, packed, width, ref)
			var got32 []uint32
			if width <= 32 {
				got32 = make([]uint32, n)
				unpackBits(got32, packed, width, 0)
			}
			for i := range vals {
				one := unpackOne(packed, i, width)
				if one != vals[i] || uint64(got[i]) != one {
					t.Fatalf("w=%d n=%d: value %d: unpackBits %d, unpackOne %d, packed %d", width, n, i, got[i], one, vals[i])
				}
				if frame[i] != int64(one+ref) {
					t.Fatalf("w=%d n=%d: value %d: fused PFOR inflate %d, want %d", width, n, i, frame[i], int64(one+ref))
				}
				if got32 != nil && uint64(got32[i]) != one {
					t.Fatalf("w=%d n=%d: value %d: unpackBits into uint32 %d, want %d", width, n, i, got32[i], one)
				}
			}
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, math.MaxUint64: 64}
	for v, w := range cases {
		if bitsFor(v) != w {
			t.Errorf("bitsFor(%d) = %d, want %d", v, bitsFor(v), w)
		}
	}
}

func TestZigzagRoundTripProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func pforRoundTrip(t *testing.T, name string, vals []int64) {
	t.Helper()
	enc := PFOREncode(vals)
	dec, err := PFORDecode(enc, nil)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(dec) != len(vals) {
		t.Fatalf("%s: len %d, want %d", name, len(dec), len(vals))
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("%s: [%d] = %d, want %d", name, i, dec[i], vals[i])
		}
	}
}

func TestPFORBasic(t *testing.T) {
	pforRoundTrip(t, "empty", nil)
	pforRoundTrip(t, "single", []int64{42})
	pforRoundTrip(t, "constant", []int64{7, 7, 7, 7, 7})
	pforRoundTrip(t, "small range", []int64{100, 103, 101, 107, 100})
	pforRoundTrip(t, "negatives", []int64{-5, -3, 0, 2, -100})
	pforRoundTrip(t, "extremes", []int64{math.MinInt64, math.MaxInt64, 0})
}

func TestPFORExceptions(t *testing.T) {
	// Mostly small values, a few huge outliers: the outliers must become
	// exceptions, keeping the code width thin.
	vals := make([]int64, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = int64(rng.Intn(16))
	}
	vals[3] = 1 << 40
	vals[500] = -(1 << 39)
	vals[1999] = 1 << 50
	pforRoundTrip(t, "outliers", vals)
	enc := PFOREncode(vals)
	if len(enc) > 2000*2 {
		t.Fatalf("outliers blew up encoding to %d bytes", len(enc))
	}
}

func TestPFORForcedExceptions(t *testing.T) {
	// One early and one very late exception with width 1 forces chain
	// links every 2 positions.
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i % 2)
	}
	vals[0] = 1 << 30
	vals[4999] = 1 << 31
	pforRoundTrip(t, "forced chain", vals)
}

func TestPFORCompressionRatio(t *testing.T) {
	// Values in [0, 100): ~7 bits/value; encoding must be far below 8
	// bytes/value and below 1.5 bytes/value.
	vals := make([]int64, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = int64(rng.Intn(100))
	}
	enc := PFOREncode(vals)
	if len(enc) > len(vals)*3/2 {
		t.Fatalf("PFOR ratio too poor: %d bytes for %d values", len(enc), len(vals))
	}
}

func TestPFORDeltaSorted(t *testing.T) {
	// Sorted runs (e.g. l_orderkey) should compress dramatically better
	// with PFOR-DELTA than with plain PFOR.
	vals := make([]int64, 8192)
	v := int64(1 << 33)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		v += int64(rng.Intn(4))
		vals[i] = v
	}
	enc := PFORDeltaEncode(vals)
	dec, err := PFORDeltaDecode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("[%d] = %d, want %d", i, dec[i], vals[i])
		}
	}
	plain := PFOREncode(vals)
	if len(enc)*4 > len(plain) {
		t.Fatalf("PFOR-DELTA (%dB) should beat PFOR (%dB) by >4x on sorted data", len(enc), len(plain))
	}
}

func TestPFORDeltaUnsortedAndEmpty(t *testing.T) {
	for _, vals := range [][]int64{nil, {9}, {5, -10, 30, 2, 2, 100, -1000}} {
		enc := PFORDeltaEncode(vals)
		dec, err := PFORDeltaDecode(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("len %d want %d", len(dec), len(vals))
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("[%d] = %d want %d", i, dec[i], vals[i])
			}
		}
	}
}

func TestPFORRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		dec, err := PFORDecode(PFOREncode(vals), nil)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPFORDeltaRoundTripProperty(t *testing.T) {
	f := func(vals []int16) bool {
		in := make([]int64, len(vals))
		for i, v := range vals {
			in[i] = int64(v)
		}
		dec, err := PFORDeltaDecode(PFORDeltaEncode(in), nil)
		if err != nil || len(dec) != len(in) {
			return false
		}
		for i := range in {
			if dec[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPFORDecodeRejectsGarbage(t *testing.T) {
	if _, err := PFORDecode([]byte{}, nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := PFORDecode([]byte{tagPDict, 1}, nil); err == nil {
		t.Fatal("wrong tag should fail")
	}
	if _, err := PFORDecode([]byte{tagPFOR, 200, 1, 1}, nil); err == nil {
		t.Fatal("truncated body should fail")
	}
}

// TestExceptionChainLinkPastInt: a 64-bit code slot whose chain link is at
// least 2^63 must end the chain with an error. Added to a position as an
// int, such a link went negative and passed the "past the last row" check:
// PFOR's patch then indexed before its rows and panicked, and PDictOpen
// opened the block with a wrapped exception position. A link of 2^64-1
// wrapped a uint64 position back onto itself, so the next exception
// patched the same row again.
func TestExceptionChainLinkPastInt(t *testing.T) {
	for _, link := range []uint64{1 << 63, 1<<64 - 1} {
		packed := binary.LittleEndian.AppendUint64(nil, link) // row 0 links to row link+1
		packed = binary.LittleEndian.AppendUint64(packed, 0)
		pfor := append([]byte{tagPFOR, 2, 0, 64, 0, 2}, packed...) // n 2, ref 0, w 64, fe 0, ne 2
		pfor = append(pfor, 2, 4)                                  // exception values 1, 2
		if _, err := PFORDecode(pfor, nil); err == nil {
			t.Errorf("PFOR, link %#x: an exception chain past the rows decoded", link)
		}
		pdict := append([]byte{tagPDict, 2, 1, 1, 'a', 64, 0, 2}, packed...) // n 2, entry "a", w 64, fe 0, ne 2
		pdict = append(pdict, 1, 'x', 1, 'y')
		if _, err := PDictOpen(pdict); err == nil {
			t.Errorf("PDictOpen, link %#x: an exception chain past the rows opened", link)
		}
		if _, err := DecodeStringsScratch(pdict, nil); err == nil {
			t.Errorf("PDICT, link %#x: an exception chain past the rows decoded", link)
		}
	}
}

func TestPDictBasic(t *testing.T) {
	vals := []string{"apple", "pear", "apple", "apple", "fig", "pear", "apple"}
	dec, err := decodeAll(PDictEncode(vals), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("[%d] = %q, want %q", i, dec[i], vals[i])
		}
	}
}

func TestPDictEmptyAndSingleton(t *testing.T) {
	for _, vals := range [][]string{nil, {""}, {"only"}, {"", "", ""}} {
		dec, err := decodeAll(PDictEncode(vals), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("len %d want %d", len(dec), len(vals))
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("[%d] = %q want %q", i, dec[i], vals[i])
			}
		}
	}
}

func TestPDictCompressionOnLowCardinality(t *testing.T) {
	// Like l_returnflag: 3 distinct single-char values.
	vals := make([]string, 10000)
	flags := []string{"A", "N", "R"}
	rng := rand.New(rand.NewSource(4))
	for i := range vals {
		vals[i] = flags[rng.Intn(3)]
	}
	enc := PDictEncode(vals)
	// 2 bits per value plus headers: must be far below 1 byte/value.
	if len(enc) > len(vals)/2 {
		t.Fatalf("PDICT too large: %d bytes for %d values", len(enc), len(vals))
	}
	dec, err := decodeAll(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("[%d] mismatch", i)
		}
	}
}

func TestEncodeStringsPicksRawForHighCardinality(t *testing.T) {
	// Unique long strings: dictionary must lose to raw+LZ.
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = strings.Repeat("x", 20) + string(rune('a'+i%26)) + strings.Repeat("y", i%17)
	}
	enc := EncodeStrings(vals)
	dec, err := decodeAll(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("[%d] mismatch", i)
		}
	}
}

func TestDecodeStringsRejectsGarbage(t *testing.T) {
	if _, err := decodeAll(nil, nil); err == nil {
		t.Fatal("nil input should fail")
	}
	if _, err := decodeAll([]byte{99, 0}, nil); err == nil {
		t.Fatal("unknown tag should fail")
	}
}

func TestPDictRoundTripProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		vals := make([]string, len(raw))
		for i, b := range raw {
			vals[i] = string(b)
		}
		dec, err := decodeAll(EncodeStrings(vals), nil)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLZRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		bytes.Repeat([]byte("hello world "), 1000),
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 10000)
	rng.Read(random)
	cases = append(cases, random)
	for i, src := range cases {
		enc := LZCompress(src)
		dec, err := LZDecompress(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestLZCompressesRepetitiveData(t *testing.T) {
	src := bytes.Repeat([]byte("TPCH comment text generation "), 500)
	enc := LZCompress(src)
	if len(enc)*10 > len(src) {
		t.Fatalf("LZ ratio too poor: %d -> %d", len(src), len(enc))
	}
}

func TestLZRejectsGarbage(t *testing.T) {
	if _, err := LZDecompress([]byte{8, 1, 0xff}); err == nil {
		t.Fatal("bad match offset should fail")
	}
	if _, err := LZDecompress(nil); err == nil {
		t.Fatal("empty input should fail")
	}
}

// lzLit appends a literal-run token carrying b (1 to 128 bytes).
func lzLit(out, b []byte) []byte { return append(append(out, byte((len(b)-1)<<1)), b...) }

// lzMatch appends a match token of length 4 to 131 at offset off.
func lzMatch(out []byte, off, length int) []byte {
	return binary.AppendUvarint(append(out, byte((length-4)<<1|1)), uint64(off))
}

// lzStream prefixes tokens with a declared decompressed length n.
func lzStream(n int, tokens []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(n)), tokens...)
}

// lzAgree decodes stream with refLZDecompress and with lzDecompress, into
// no buffer and into a reused one full of stale bytes, and fails unless all
// give the same bytes or all fail. It returns the reference's error.
func lzAgree(t *testing.T, stream []byte) error {
	t.Helper()
	want, wantErr := refLZDecompress(nil, stream)
	stale := make([]byte, 1<<12)
	for _, dst := range [][]byte{nil, stale} {
		for i := range dst {
			dst[i] = 0xa5
		}
		got, err := lzDecompress(dst, stream)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("stream %x: lzDecompress error %v, reference error %v", stream, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %x: lzDecompress gives %x, reference %x", stream, got, want)
		}
	}
	return wantErr
}

// TestLZMatchesReference holds the word-wise LZ decoder to the byte-wise
// reference on the copies' edges: every match offset from 1 to 24 (the
// self-overlapping and the 8-byte paths) at every length, each ending
// exactly at the declared length and followed by tokens that overwrite
// what its words wrote past its end; literal runs ending at the declared
// length with few or many source bytes left; streams that overrun the
// declared length by one byte, and by more than lzSlack; and every
// truncation of valid streams.
func TestLZMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lit := make([]byte, 128)
	rng.Read(lit)
	mustDecode := func(stream []byte) {
		t.Helper()
		if err := lzAgree(t, stream); err != nil {
			t.Fatalf("stream %x: %v", stream, err)
		}
	}
	mustFail := func(stream []byte) {
		t.Helper()
		if lzAgree(t, stream) == nil {
			t.Fatalf("stream %x decoded", stream)
		}
	}
	var valid [][]byte
	for off := 1; off <= 24; off++ {
		for length := 4; length <= 131; length++ {
			toks := lzMatch(lzLit(nil, lit[:24]), off, length)
			mustDecode(lzStream(24+length, toks))
			mustFail(lzStream(24+length-1, toks))
			mustFail(lzStream(24, toks)) // past the slack, too
			more := lzMatch(lzLit(toks, lit[100:103]), 7, 9)
			mustDecode(lzStream(24+length+12, more))
			if length%37 == 0 {
				valid = append(valid, lzStream(24+length+12, more))
			}
		}
	}
	for _, run := range []int{1, 7, 8, 9, 15, 16, 17, 100, 128} {
		toks := lzLit(nil, lit[:run])
		mustDecode(lzStream(run, toks))
		mustFail(lzStream(run-1, toks))
		mustFail(lzStream(0, toks))
		toks = lzLit(lzMatch(lzLit(nil, lit[:20]), 20, 20), lit[:run]) // run bytes left to read
		mustDecode(lzStream(40+run, toks))
		mustFail(lzStream(40+run-1, toks))
		valid = append(valid, lzStream(40+run, toks))
	}
	valid = append(valid, LZCompress([]byte(strings.Join(commentStrs(64), "|"))))
	for _, stream := range valid {
		for k := range len(stream) {
			lzAgree(t, stream[:k])
		}
	}
}

func TestLZRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		dec, err := LZDecompress(LZCompress(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPFORPatching(b *testing.B) {
	// Ablation: decode cost with and without exceptions present.
	mk := func(excEvery int) []byte {
		vals := make([]int64, 65536)
		rng := rand.New(rand.NewSource(6))
		for i := range vals {
			vals[i] = int64(rng.Intn(256))
			if excEvery > 0 && i%excEvery == 0 {
				vals[i] = int64(rng.Intn(1 << 40))
			}
		}
		return PFOREncode(vals)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"no-exceptions", mk(0)},
		{"1pct-exceptions", mk(100)},
		{"10pct-exceptions", mk(10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dst := make([]int64, 0, 65536)
			b.SetBytes(65536 * 8)
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = PFORDecode(tc.enc, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeAll decodes a string block of either scheme through the arena
// decoder and returns its values as a []string.
func decodeAll(data []byte, s *Scratch) ([]string, error) {
	c, err := DecodeStringsScratch(data, s)
	return colStrings(&c), err
}

// materializeAll is PDictBlock.Materialize as a []string.
func materializeAll(b *PDictBlock) ([]string, error) {
	c, err := b.Materialize()
	return colStrings(&c), err
}

func colStrings(c *StrCol) []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}
