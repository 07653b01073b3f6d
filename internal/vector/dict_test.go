package vector

import (
	"testing"

	"vectorh/internal/compress"
)

func dictVec() (*Vec, []string) {
	d := &compress.StrDict{Values: []string{"red", "green", "blue"}}
	codes := []uint32{2, 0, 0, 1, 2}
	want := []string{"blue", "red", "red", "green", "blue"}
	return FromDictCodes(codes, d), want
}

func TestDictVecAccessAndMaterialize(t *testing.T) {
	v, want := dictVec()
	if !v.IsDict() || v.Len() != 5 || v.Kind() != String {
		t.Fatalf("shape: dict=%v len=%d kind=%v", v.IsDict(), v.Len(), v.Kind())
	}
	for i, w := range want {
		if v.StrAt(i) != w {
			t.Fatalf("StrAt(%d) = %q, want %q", i, v.StrAt(i), w)
		}
	}
	if v.IsDict() != true {
		t.Fatal("StrAt must not materialize")
	}
	got := v.Strings() // a fresh slice: the vector keeps its codes
	if !v.IsDict() {
		t.Fatal("Strings must not materialize")
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("row %d: %q != %q", i, got[i], w)
		}
	}
	v.AppendString("teal") // a mutator materializes
	if v.IsDict() || v.Len() != 6 {
		t.Fatalf("AppendString must materialize: dict=%v len=%d", v.IsDict(), v.Len())
	}
	for i, w := range append(want, "teal") {
		if v.StrAt(i) != w {
			t.Fatalf("materialized row %d: %q != %q", i, v.StrAt(i), w)
		}
	}
}

func TestDictVecSliceGatherPreserveCodes(t *testing.T) {
	v, want := dictVec()
	s := v.Slice(1, 4)
	if !s.IsDict() || s.Len() != 3 || s.StrAt(0) != want[1] {
		t.Fatalf("slice: dict=%v len=%d v0=%q", s.IsDict(), s.Len(), s.StrAt(0))
	}
	g := v.Gather([]int32{4, 0, 2}, 0)
	if !g.IsDict() || g.StrAt(0) != "blue" || g.StrAt(2) != "red" {
		t.Fatalf("gather: dict=%v %q %q", g.IsDict(), g.StrAt(0), g.StrAt(2))
	}
	dense := v.Gather(nil, 2)
	if !dense.IsDict() || dense.Len() != 2 || dense.StrAt(1) != "red" {
		t.Fatalf("dense gather: %v %d", dense.IsDict(), dense.Len())
	}
}

func TestDictVecAppendPaths(t *testing.T) {
	v, want := dictVec()
	out := New(String, 0)
	out.AppendFrom(v, 3)
	out.AppendRange(v, 0, 2)
	out.AppendGather(v, []int32{-1, 4})
	got := out.Strings()
	exp := []string{"green", "blue", "red", "", "blue"}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("row %d: %q != %q", i, got[i], exp[i])
		}
	}
	_ = want
}

func TestDictVecHashMatchesStringHash(t *testing.T) {
	v, want := dictVec()
	plain := FromString(want)
	hd, hp := make([]uint64, 5), make([]uint64, 5)
	HashCol(hd, v)
	HashCol(hp, plain)
	for i := range hd {
		if hd[i] != hp[i] {
			t.Fatalf("HashCol row %d: dict %x != plain %x", i, hd[i], hp[i])
		}
	}
	RehashCol(hd, v)
	RehashCol(hp, plain)
	for i := range hd {
		if hd[i] != hp[i] {
			t.Fatalf("RehashCol row %d: dict %x != plain %x", i, hd[i], hp[i])
		}
	}
	if v.IsDict() != true {
		t.Fatal("hash kernels must not materialize")
	}
}
