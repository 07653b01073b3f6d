package compress

import (
	"fmt"
	"math/rand"
	"testing"
)

func scratchTestVals() []int64 {
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = int64(i * 7)
		if i%97 == 0 {
			vals[i] = int64(i) << 40 // exception outside any narrow frame
		}
	}
	return vals
}

// commentStrs returns n values shaped like l_comment: four words from the
// TPC-H comment vocabulary, unique enough that the block goes raw+LZ.
func commentStrs(n int) []string {
	rng := rand.New(rand.NewSource(17))
	words := []string{"furiously", "carefully", "quickly", "blithely", "slyly", "ideas", "deposits",
		"accounts", "packages", "requests", "instructions", "theodolites", "platelets", "excuses",
		"pending", "final", "regular", "express", "ironic", "bold", "even", "silent", "special"}
	out := make([]string, n)
	for i := range out {
		out[i] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " +
			words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
	}
	return out
}

// TestRawLZDecodeAllocs pins the raw+LZ decode to two allocations per
// block, the column's arena and its offsets, whatever the value count: the
// decompressed bytes stage in the scratch, and no value gets a string of its
// own.
func TestRawLZDecodeAllocs(t *testing.T) {
	for _, n := range []int{64, 1024, 8192} {
		vals := commentStrs(n)
		enc := EncodeStrings(vals)
		if IsPDict(enc) {
			t.Fatalf("n=%d: comment-shaped block encoded as PDICT; the test needs raw+LZ", n)
		}
		var s Scratch
		c, err := DecodeStringsScratch(enc, &s) // grows the scratch
		if err != nil {
			t.Fatal(err)
		}
		eqStr(t, "raw+LZ", vals, colStrings(&c))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeStringsScratch(enc, &s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("n=%d: raw+LZ decode allocated %.1f times per block, want <= 2", n, allocs)
		}
	}
}

func scratchTestStrs(n int) []string {
	strs := make([]string, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("status-%d", i%7)
	}
	return strs
}

// TestScratchReuseAvoidsAllocs pins the contract of the *Scratch decode
// entry points: once the staging buffers have grown to block size, decoding
// further blocks into a reused destination allocates nothing at all for the
// integer codecs, and for PDICT a count its dictionary sets, not its rows.
// A long-lived scanner leans on this — the scan hot path is lint-gated
// against per-batch allocation.
func TestScratchReuseAvoidsAllocs(t *testing.T) {
	vals := scratchTestVals()
	encPFOR := PFOREncode(vals)
	encDelta := PFORDeltaEncode(vals)

	var s Scratch
	dst := make([]int64, 0, len(vals))
	// Warm: grow the scratch staging arrays once.
	if _, err := PFORDecodeScratch(encPFOR, dst[:0], &s); err != nil {
		t.Fatal(err)
	}
	if _, err := PFORDeltaDecodeScratch(encDelta, dst[:0], &s); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(50, func() {
		if _, err := PFORDecodeScratch(encPFOR, dst[:0], &s); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("PFOR decode with warm scratch allocated %.1f times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := PFORDeltaDecodeScratch(encDelta, dst[:0], &s); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("PFOR-DELTA decode with warm scratch allocated %.1f times per op, want 0", n)
	}

	// PDICT decode opens the block and materializes it: the block handle,
	// its dictionary (values, and one string they are cut from), code
	// stream, codes, arena and offsets — as many allocations at 8192 rows
	// as at 2048.
	allocs := func(enc []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeStringsScratch(enc, &s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(PDictEncode(scratchTestStrs(2048))), allocs(PDictEncode(scratchTestStrs(8192))); small != large {
		t.Fatalf("PDICT decode allocations grow with rows: %.1f at 2048, %.1f at 8192", small, large)
	}
}

// BenchmarkDecodeScratch measures block decode with the staging buffers
// reused across calls, the configuration the scanner runs; allocs/op is the
// headline number (0 for the integer codecs once warm).
func BenchmarkDecodeScratch(b *testing.B) {
	vals := scratchTestVals()
	encPFOR := PFOREncode(vals)
	encDelta := PFORDeltaEncode(vals)
	encDict := PDictEncode(scratchTestStrs(2048))

	b.Run("pfor", func(b *testing.B) {
		var s Scratch
		dst := make([]int64, 0, len(vals))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PFORDecodeScratch(encPFOR, dst[:0], &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pfor-delta", func(b *testing.B) {
		var s Scratch
		dst := make([]int64, 0, len(vals))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PFORDeltaDecodeScratch(encDelta, dst[:0], &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-lz", func(b *testing.B) {
		vals := commentStrs(8192)
		enc := EncodeStrings(vals)
		raw := 0
		for _, v := range vals {
			raw += len(v)
		}
		var s Scratch
		if _, err := DecodeStringsScratch(enc, &s); err != nil { // grows the scratch
			b.Fatal(err)
		}
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeStringsScratch(enc, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pdict", func(b *testing.B) {
		var s Scratch
		dst := make([]string, 0, 2048)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PDictDecodeScratch(encDict, dst[:0], &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
