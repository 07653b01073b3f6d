package compress

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// intShapes generates the value distributions the frame choice must get
// byte-equal to the reference on.
var intShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int64
}{
	{"constant", func(_ *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return 42 })
	}},
	{"dense_small_domain", func(rng *rand.Rand, n int) []int64 { // l_quantity
		return fill(n, func(int) int64 { return int64(rng.Intn(50)+1) * 100 })
	}},
	{"sorted_keys", func(_ *rand.Rand, n int) []int64 {
		return fill(n, func(i int) int64 { return 1_000_000 + int64(i) })
	}},
	{"clustered_keys_with_gaps", func(rng *rand.Rand, n int) []int64 {
		k := int64(7)
		return fill(n, func(int) int64 {
			if rng.Intn(4) == 0 {
				k += int64(rng.Intn(40)) + 1
			}
			if rng.Intn(500) == 0 {
				k += 1 << 20
			}
			return k
		})
	}},
	{"uniform_wide", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return rng.Int63n(1 << 40) })
	}},
	{"outliers_above", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			if rng.Intn(100) == 0 {
				return 1<<50 + rng.Int63n(1<<20)
			}
			return rng.Int63n(1000)
		})
	}},
	{"outliers_below", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			if rng.Intn(100) == 0 {
				return -(1<<50 + rng.Int63n(1<<20))
			}
			return 5000 + rng.Int63n(1000)
		})
	}},
	{"outliers_both_sides", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 {
			switch rng.Intn(200) {
			case 0:
				return math.MaxInt64 - rng.Int63n(9)
			case 1:
				return math.MinInt64 + rng.Int63n(9)
			}
			return rng.Int63n(64) - 32
		})
	}},
	{"mostly_constant", func(rng *rand.Rand, n int) []int64 { // w = 0 bumped to 1
		return fill(n, func(int) int64 {
			if rng.Intn(300) == 0 {
				return rng.Int63n(1 << 30)
			}
			return 7
		})
	}},
	{"full_int64_range", func(rng *rand.Rand, n int) []int64 {
		return fill(n, func(int) int64 { return int64(rng.Uint64()) })
	}},
	{"extremes_only", func(_ *rand.Rand, n int) []int64 { // span = 2^64-1, two distinct values
		return fill(n, func(i int) int64 {
			if i%2 == 0 {
				return math.MinInt64
			}
			return math.MaxInt64
		})
	}},
	{"descending", func(_ *rand.Rand, n int) []int64 {
		return fill(n, func(i int) int64 { return int64(3 * (n - i)) })
	}},
}

func fill(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestEncoderMatchesReferenceInts holds every integer entry point byte-equal
// to the reference encoders, with one Encoder reused across all shapes and
// sizes so stale scratch would show.
func TestEncoderMatchesReferenceInts(t *testing.T) {
	var e Encoder
	for _, shape := range intShapes {
		for _, n := range []int{1, 2, 3, 47, 1000, 8191, 8192} {
			vals := shape.gen(rand.New(rand.NewSource(int64(n))), n)
			name := fmt.Sprintf("%s/n=%d", shape.name, n)
			if got, want := e.AppendInts(nil, vals), refEncodeInts(vals); !bytes.Equal(got, want) {
				t.Errorf("%s: AppendInts differs from encode-both-keep-smaller (%d vs %d bytes, tags %d vs %d)",
					name, len(got), len(want), got[0], want[0])
			}
			if !bytes.Equal(PFOREncode(vals), refPFOREncode(vals)) {
				t.Errorf("%s: PFOREncode differs from reference", name)
			}
			if !bytes.Equal(PFORDeltaEncode(vals), refPFORDeltaEncode(vals)) {
				t.Errorf("%s: PFORDeltaEncode differs from reference", name)
			}
			ref, w := e.chooseRefWidth(vals)
			if rref, rw := refChooseRefWidth(vals); ref != rref || w != rw {
				t.Errorf("%s: chooseRefWidth = (%d, %d), reference (%d, %d)", name, ref, w, rref, rw)
			}
		}
	}
	if got, want := e.AppendInts([]byte("prefix"), nil), append([]byte("prefix"), refEncodeInts(nil)...); !bytes.Equal(got, want) {
		t.Errorf("empty block: %v, reference %v", got, want)
	}
}

// strShapes: blocks of n strings over the given number of distinct values.
func strBlock(rng *rand.Rand, n, distinct int) []string {
	words := []string{"furiously", "carefully", "quickly", "blithely", "slyly", "ideas", "deposits", "accounts"}
	pool := make([]string, distinct)
	for i := range pool {
		pool[i] = fmt.Sprintf("%s %s %d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
	}
	out := make([]string, n)
	for i := range out {
		// Skewed, so frequency order differs from first-occurrence order.
		out[i] = pool[int(float64(distinct)*math.Pow(rng.Float64(), 2))]
	}
	return out
}

func TestEncoderMatchesReferenceStrings(t *testing.T) {
	var e Encoder
	check := func(name string, vals []string) {
		t.Helper()
		col := StrColOf(vals)
		if got, want := e.AppendStrings(nil, &col), refEncodeStrings(vals); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendStrings differs from reference (%d vs %d bytes, tags %d vs %d)",
				name, len(got), len(want), got[0], want[0])
		}
		if !bytes.Equal(PDictEncode(vals), refPDictEncode(vals)) {
			t.Errorf("%s: PDictEncode differs from reference", name)
		}
	}
	for _, n := range []int{1, 2, 300, 8191, 8192} {
		for _, distinct := range []int{1, 7, 300, n} {
			if distinct > n {
				continue
			}
			check(fmt.Sprintf("n=%d/distinct=%d", n, distinct), strBlock(rand.New(rand.NewSource(int64(n+distinct))), n, distinct))
		}
		all := make([]string, n) // every value distinct: raw+LZ territory
		for i := range all {
			all[i] = fmt.Sprintf("comment %d about %d", i*7919, i)
		}
		check(fmt.Sprintf("n=%d/all_distinct", n), all)
	}
	check("empty", nil)
	check("empty_strings", make([]string, 100))
	for _, distinct := range []int{2, smallDomain, smallDomain + 1} { // runs: raw+LZ is smaller
		runs := make([]string, 8192)
		for i := range runs {
			runs[i] = fmt.Sprintf("v%d", i*distinct/len(runs))
		}
		check(fmt.Sprintf("runs_of_%d", distinct), runs)
	}
	check("incompressible", func() []string {
		rng := rand.New(rand.NewSource(1))
		out := make([]string, 500)
		for i := range out {
			b := make([]byte, 40)
			rng.Read(b)
			out[i] = string(b)
		}
		return out
	}())

	// More distinct values than dictionary slots: the overflow becomes
	// exceptions, and rare runs of them need forced chain links.
	const n = maxDictEntries + 5000
	over := make([]string, 0, n+n/2)
	for i := 0; i < n; i++ {
		over = append(over, fmt.Sprintf("v%06d", i))
		if i%2 == 0 {
			over = append(over, "v000001")
		}
	}
	check("over_dictionary_cap", over)
}

func TestLZCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 127, 128, 129, 4096, 100_000} {
		src := make([]byte, n)
		for i := range src {
			src[i] = "abcd "[rng.Intn(5)]
		}
		if !bytes.Equal(LZCompress(src), refLZCompress(src)) {
			t.Errorf("n=%d: LZCompress differs from reference on repetitive input", n)
		}
		rng.Read(src)
		if !bytes.Equal(LZCompress(src), refLZCompress(src)) {
			t.Errorf("n=%d: LZCompress differs from reference on random input", n)
		}
	}
}

func TestPackBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for w := 0; w <= 64; w++ {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() // high bits set: packBits must mask
			}
			got := packBits([]byte{0xAA}, vals, w)
			if want := refPackBits([]byte{0xAA}, vals, w); !bytes.Equal(got, want) {
				t.Fatalf("w=%d n=%d: packBits differs from reference", w, n)
			}
		}
	}
}

func TestEncoderReuseDoesNotAllocate(t *testing.T) {
	ints := fill(8192, func(i int) int64 { return int64(i/3)*7 + int64(i%2)<<30 }) // frame plus exceptions
	strs := StrColOf(strBlock(rand.New(rand.NewSource(1)), 8192, 300))
	var e Encoder
	var out []byte
	encode := func() {
		out = e.AppendInts(out[:0], ints)
		out = e.AppendStrings(out[:0], &strs)
	}
	encode() // sizes the scratch
	if allocs := testing.AllocsPerRun(10, encode); allocs != 0 {
		t.Errorf("warm Encoder allocated %.0f times per int+string block, want 0", allocs)
	}
}

// BenchmarkEncode times one 8192-value block per column shape through a warm
// Encoder — the unit of work of the bulk-load path.
func BenchmarkEncode(b *testing.B) {
	const n = 8192
	rng := rand.New(rand.NewSource(9))
	words := []string{"furiously", "carefully", "quickly", "blithely", "slyly", "ideas", "deposits",
		"accounts", "packages", "requests", "instructions", "theodolites", "platelets", "excuses"}
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	ints := map[string][]int64{
		"int_dense":      fill(n, func(int) int64 { return int64(rng.Intn(50)+1) * 100 }),
		"int_sortedkeys": fill(n, func(i int) int64 { return 600_000 + int64(i/4) }),
		"int_wide":       fill(n, func(int) int64 { return 90_000 + rng.Int63n(10_000_000) }),
	}
	strs := map[string][]string{"str_lowcard": make([]string, n), "str_comment": make([]string, n)}
	for i := 0; i < n; i++ {
		strs["str_lowcard"][i] = modes[rng.Intn(len(modes))]
		strs["str_comment"][i] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " +
			words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
	}
	var e Encoder
	var out []byte
	for _, name := range []string{"int_dense", "int_sortedkeys", "int_wide"} {
		vals := ints[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = e.AppendInts(out[:0], vals)
			}
		})
	}
	for _, name := range []string{"str_lowcard", "str_comment"} {
		vals := StrColOf(strs[name])
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(vals.ValueBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = e.AppendStrings(out[:0], &vals)
			}
		})
	}
}
