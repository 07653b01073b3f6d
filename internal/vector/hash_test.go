package vector

import (
	"math"
	"testing"

	"vectorh/internal/compress"
)

func TestHashColAgreesWithScalarHash(t *testing.T) {
	vals := []int64{0, 1, -1, 42, 1 << 40, -(1 << 40)}
	v := FromInt64(vals)
	dst := make([]uint64, v.Len())
	HashCol(dst, v)
	for i, x := range vals {
		if dst[i] != HashInt64(x) {
			t.Fatalf("HashCol[%d] = %x, HashInt64(%d) = %x", i, dst[i], x, HashInt64(x))
		}
	}
}

func TestHashColInt32MatchesInt64(t *testing.T) {
	// An int32 and an int64 column holding the same key values must
	// partition identically (sign extension, not zero extension).
	vals32 := []int32{0, 1, -1, 1 << 20, -(1 << 20)}
	vals64 := make([]int64, len(vals32))
	for i, x := range vals32 {
		vals64[i] = int64(x)
	}
	h32 := make([]uint64, len(vals32))
	h64 := make([]uint64, len(vals64))
	HashCol(h32, FromInt32(vals32))
	HashCol(h64, FromInt64(vals64))
	for i := range h32 {
		if h32[i] != h64[i] {
			t.Fatalf("int32/int64 hash mismatch at %d: %x vs %x", i, h32[i], h64[i])
		}
	}
}

func TestHashColsMultiColumn(t *testing.T) {
	a := FromInt64([]int64{1, 1, 2})
	b := FromString([]string{"x", "y", "x"})
	dst := make([]uint64, 3)
	HashCols(dst, []*Vec{a, b})
	if dst[0] == dst[1] || dst[0] == dst[2] || dst[1] == dst[2] {
		t.Fatalf("distinct composite keys must (overwhelmingly) hash apart: %v", dst)
	}
	// Same composite key values hash equal regardless of the batch they
	// arrive in.
	dst2 := make([]uint64, 1)
	HashCols(dst2, []*Vec{FromInt64([]int64{1}), FromString([]string{"y"})})
	if dst2[0] != dst[1] {
		t.Fatalf("composite key (1,y) hashed %x then %x", dst[1], dst2[0])
	}
}

func TestHashColsZeroColumns(t *testing.T) {
	dst := []uint64{1, 2, 3}
	HashCols(dst, nil)
	if dst[0] != dst[1] || dst[1] != dst[2] {
		t.Fatalf("zero-key hash must be constant: %v", dst)
	}
}

func TestHashColKinds(t *testing.T) {
	// Every kind hashes without allocation or panic, and unequal values
	// hash apart.
	cases := []*Vec{
		FromBool([]bool{true, false}),
		FromFloat64([]float64{1.5, 1.7}),
		FromString([]string{"a", "b"}),
	}
	for _, v := range cases {
		dst := make([]uint64, 2)
		HashCol(dst, v)
		if dst[0] == dst[1] {
			t.Fatalf("%v values hashed equal: %v", v.Kind(), dst)
		}
		re := []uint64{dst[0], dst[1]}
		RehashCol(re, v)
		if re[0] == dst[0] {
			t.Fatalf("%v rehash did not fold", v.Kind())
		}
	}
}

// TestHashRowMatchesHashCols: the scalar row hash equals the batch kernels'
// hash for every kind, for strings in dictionary and in value form, and for
// one-, two- and three-column keys, so a table can mix keys inserted row by
// row with keys probed batch-at-a-time.
func TestHashRowMatchesHashCols(t *testing.T) {
	dict := &compress.StrDict{Values: []string{"", "R", "AIR", "REG AIR", "TRUCK"}}
	codes := []uint32{3, 0, 4, 1, 1, 2}
	strs := make([]string, len(codes))
	for i, c := range codes {
		strs[i] = dict.Values[c]
	}
	cols := map[string]*Vec{
		"int64":  FromInt64([]int64{math.MinInt64, -1, 0, 1, 7, math.MaxInt64}),
		"int32":  FromInt32([]int32{math.MinInt32, -1, 0, 1, 7, math.MaxInt32}),
		"float":  FromFloat64([]float64{math.Inf(-1), -0.0, 0, 1.5, math.NaN(), 1e300}),
		"bool":   FromBool([]bool{true, false, false, true, true, false}),
		"dict":   FromDictCodes(codes, dict),
		"string": FromString(strs),
	}
	keys := [][]string{
		{"int64"}, {"int32"}, {"float"}, {"bool"}, {"dict"}, {"string"},
		{"dict", "int64"}, {"string", "string"}, {"bool", "float"},
		{"int32", "dict", "bool"}, {"string", "float", "int64"},
	}
	for _, names := range keys {
		key := make([]*Vec, len(names))
		for i, name := range names {
			key[i] = cols[name]
		}
		want := make([]uint64, len(codes))
		HashCols(want, key)
		for r, h := range want {
			if got := HashRow(key, r); got != h {
				t.Errorf("%v row %d: HashRow = %x, HashCols = %x", names, r, got, h)
			}
		}
	}
	// Dictionary and value forms of one string hash alike row by row too.
	for r := range codes {
		if HashRow([]*Vec{cols["dict"]}, r) != HashRow([]*Vec{cols["string"]}, r) {
			t.Errorf("row %d: dictionary and value forms of %q hash apart", r, strs[r])
		}
	}
	var seed [1]uint64
	HashCols(seed[:], nil)
	if HashRow(nil, 0) != seed[0] {
		t.Error("zero key columns: HashRow differs from HashCols")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	var p Pool
	s := p.GetSel(100)
	s = append(s, 1, 2, 3)
	p.PutSel(s)
	s2 := p.GetSel(50)
	if len(s2) != 0 || cap(s2) < 50 {
		t.Fatalf("recycled sel: len=%d cap=%d", len(s2), cap(s2))
	}
	h := p.GetHashes(64)
	if len(h) != 64 {
		t.Fatalf("hashes len = %d", len(h))
	}
	p.PutHashes(h)
	bm := p.GetBools(16)
	bm[3] = true
	p.PutBools(bm)
	bm2 := p.GetBools(8)
	for i, b := range bm2 {
		if b {
			t.Fatalf("recycled bools not zeroed at %d", i)
		}
	}
}

func TestAppendRangeAndGather(t *testing.T) {
	src := FromInt64([]int64{10, 20, 30, 40})
	v := New(Int64, 0)
	v.AppendRange(src, 1, 3)
	if v.Len() != 2 || v.Int64s()[0] != 20 || v.Int64s()[1] != 30 {
		t.Fatalf("AppendRange = %v", v.Int64s())
	}
	v.AppendGather(src, []int32{3, -1, 0})
	got := v.Int64s()
	if v.Len() != 5 || got[2] != 40 || got[3] != 0 || got[4] != 10 {
		t.Fatalf("AppendGather = %v", got)
	}
	s := New(String, 0)
	s.AppendGather(FromString([]string{"a", "b"}), []int32{1, -1})
	if s.Strings()[0] != "b" || s.Strings()[1] != "" {
		t.Fatalf("string AppendGather = %v", s.Strings())
	}
}
