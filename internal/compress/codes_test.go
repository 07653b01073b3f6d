package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestPDictOpenCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	cases := [][]string{
		{},
		{"x"},
		{"a", "b", "a", "c", "a", "b"},
	}
	// Repetitive block with rare exceptions (sentinel-coded values).
	big := make([]string, 3000)
	for i := range big {
		if rng.Intn(97) == 0 {
			big[i] = string(rune('A'+rng.Intn(26))) + "-rare"
		} else {
			big[i] = pool[rng.Intn(len(pool))]
		}
	}
	cases = append(cases, big)

	for ci, vals := range cases {
		enc := PDictEncode(vals)
		b, err := PDictOpen(enc)
		if err != nil {
			t.Fatalf("case %d: open: %v", ci, err)
		}
		if b.Rows() != len(vals) {
			t.Fatalf("case %d: rows %d != %d", ci, b.Rows(), len(vals))
		}
		codes, err := b.Codes()
		if err != nil {
			t.Fatalf("case %d: codes: %v", ci, err)
		}
		want, err := decodeAll(enc, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		seen := map[string]uint32{}
		for i := range vals {
			got := b.Dict.Values[codes[i]]
			if got != want[i] {
				t.Fatalf("case %d row %d: code %d -> %q, want %q", ci, i, codes[i], got, want[i])
			}
			// Canonical codes: one code per distinct string.
			if c, ok := seen[got]; ok && c != codes[i] {
				t.Fatalf("case %d: %q has codes %d and %d", ci, got, c, codes[i])
			}
			seen[got] = codes[i]
		}
		mat, err := materializeAll(b)
		if err != nil {
			t.Fatalf("case %d: materialize: %v", ci, err)
		}
		for i := range want {
			if mat[i] != want[i] {
				t.Fatalf("case %d: materialize row %d: %q != %q", ci, i, mat[i], want[i])
			}
		}
		if len(vals) > 0 && b.DictBytes()+b.CodeBytes() > len(enc) {
			t.Fatalf("case %d: section bytes %d+%d exceed block %d", ci, b.DictBytes(), b.CodeBytes(), len(enc))
		}
	}
}

func TestStrDictLookupAndHashes(t *testing.T) {
	d := &StrDict{Values: []string{"a", "b", "c"}}
	if d.Lookup("b") != 1 || d.Lookup("z") != -1 {
		t.Fatalf("lookup: got %d, %d", d.Lookup("b"), d.Lookup("z"))
	}
	fn := func(s string) uint64 { return uint64(len(s)) + 7 }
	hs := d.CodeHashes(fn)
	if len(hs) != 3 || hs[0] != 8 {
		t.Fatalf("hashes: %v", hs)
	}
	if &hs[0] != &d.CodeHashes(fn)[0] {
		t.Fatal("hashes not memoized")
	}
}

func TestPFORBounds(t *testing.T) {
	cases := [][]int64{
		{1, 2, 3, 4, 5},
		{100, 100, 100},
		{-5, 0, 5, math.MaxInt64, math.MinInt64}, // wide outliers become exceptions
		{0},
	}
	rng := rand.New(rand.NewSource(11))
	dense := make([]int64, 4000)
	for i := range dense {
		dense[i] = int64(rng.Intn(1000)) + 50
		if rng.Intn(211) == 0 {
			dense[i] = int64(rng.Intn(2000000)) - 1000000
		}
	}
	cases = append(cases, dense)

	for ci, vals := range cases {
		enc := PFOREncode(vals)
		lo, hi, ok := PFORBounds(enc)
		if !ok {
			continue // conservative bail-out is always allowed
		}
		for i, v := range vals {
			if v < lo || v > hi {
				t.Fatalf("case %d: value %d at %d outside bounds [%d,%d]", ci, v, i, lo, hi)
			}
		}
	}
	if _, _, ok := PFORBounds(PFORDeltaEncode([]int64{1, 2, 3})); ok {
		t.Fatal("bounds must not apply to delta blocks")
	}
	if _, _, ok := PFORBounds(PFOREncode(nil)); ok {
		t.Fatal("bounds on empty block")
	}
}

func TestPFORDecodeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(500))
		if rng.Intn(37) == 0 {
			vals[i] = rng.Int63() - rng.Int63()
		}
	}
	enc := PFOREncode(vals)
	var s Scratch
	for _, r := range [][2]int{{0, 5000}, {0, 1}, {4999, 5000}, {1024, 2048}, {17, 4990}, {2000, 2000}} {
		got, err := PFORDecodeRange(enc, r[0], r[1], nil, &s)
		if err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
		if len(got) != r[1]-r[0] {
			t.Fatalf("range %v: got %d values", r, len(got))
		}
		for i, v := range got {
			if v != vals[r[0]+i] {
				t.Fatalf("range %v row %d: %d != %d", r, i, v, vals[r[0]+i])
			}
		}
	}
	if _, err := PFORDecodeRange(enc, 10, 5001, nil, nil); err == nil {
		t.Fatal("out-of-range decode must fail")
	}
}

func TestScratchReuseAcrossSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ints := make([]int64, 2048)
	for i := range ints {
		ints[i] = int64(rng.Intn(100000))
	}
	strs := make([]string, 2048)
	for i := range strs {
		strs[i] = []string{"l", "m", "n", "o"}[rng.Intn(4)]
	}
	pf, pd, dict := PFOREncode(ints), PFORDeltaEncode(ints), PDictEncode(strs)
	var s Scratch
	for round := 0; round < 3; round++ {
		gi, err := PFORDecodeScratch(pf, nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := PFORDeltaDecodeScratch(pd, nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := decodeAll(dict, &s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ints {
			if gi[i] != ints[i] || gd[i] != ints[i] || gs[i] != strs[i] {
				t.Fatalf("round %d row %d mismatch", round, i)
			}
		}
	}
}
