package compress

import (
	"fmt"
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
		want, err := decodeAll(enc, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		eqStr(t, fmt.Sprintf("case %d: decode", ci), vals, want)
		b, err := PDictOpen(enc)
		if err != nil {
			t.Fatalf("case %d: open: %v", ci, err)
		}
		// An opened block owns its bytes: a scanner reads every block into
		// one reused buffer, so the payload is overwritten after the open.
		for i := range enc {
			enc[i] = 0xa5
		}
		if b.Rows() != len(vals) {
			t.Fatalf("case %d: rows %d != %d", ci, b.Rows(), len(vals))
		}
		codes, err := b.Codes()
		if err != nil {
			t.Fatalf("case %d: codes: %v", ci, err)
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
