package vector

import "vectorh/internal/compress"

// Dictionary-code vectors: a String vector whose block was PDICT-compressed
// can flow through the engine as fixed-width codes plus a per-block
// dictionary handle instead of materialized strings. Operators that
// understand codes (scan predicate kernels, the hash layer, hash-table
// verification) read them directly; everything else transparently falls
// back — every reader goes through StrAt, which looks the code up, and a
// string mutator materializes the vector in place, so correctness never
// depends on an operator being code-aware. The PDT-delta merge path relies
// on exactly this: merging appends value-space strings, which forces
// re-materialization first.

// FromDictCodes wraps a code slice and its dictionary as a String vector
// without copying or materializing. Every code must index dict.Values.
func FromDictCodes(codes []uint32, dict *compress.StrDict) *Vec {
	return &Vec{kind: String, n: len(codes), codes: codes, dict: dict}
}

// IsDict reports whether the vector currently holds dictionary codes.
func (v *Vec) IsDict() bool { return v.dict != nil }

// DictCodes returns the code slice of a dictionary vector (nil otherwise).
func (v *Vec) DictCodes() []uint32 {
	if v.dict == nil {
		return nil
	}
	return v.codes[:v.n]
}

// Dict returns the dictionary handle of a dictionary vector (nil otherwise).
func (v *Vec) Dict() *compress.StrDict { return v.dict }

// StrAt returns element i of a String vector without materializing a
// dictionary vector: one array lookup, no per-row allocation.
func (v *Vec) StrAt(i int) string {
	if v.dict != nil {
		return v.dict.Values[v.codes[i]]
	}
	return v.str.At(i)
}

// StrCol returns a plain String vector's values as a read-only column: At
// on a local copy is StrAt without the dictionary test, for long loops.
func (v *Vec) StrCol() compress.StrCol {
	v.check(String)
	if v.dict != nil {
		panic("vector: StrCol on a dictionary vector")
	}
	return v.str
}

// materialize converts a dictionary vector to plain strings in place,
// copying each value's bytes into a new arena.
func (v *Vec) materialize() {
	src := FromDictCodes(v.codes[:v.n], v.dict)
	v.codes, v.dict, v.n, v.str = nil, nil, 0, compress.StrCol{}
	v.AppendRange(src, 0, src.n)
}
