package vector

import "math"

// Hash kernels: column-at-a-time hashing shared by every hash consumer in
// the engine — hash joins and group-by (exec.HashTable), COUNT(DISTINCT),
// local and distributed exchange partitioning (exec.RowHasher, which
// XchgHashSplit and mpp.DXchgHashSplit route on) and table partitioning. One definition means local
// and remote partitioning always agree, and a join can trust that both
// sides of an exchange used the same function.
//
// The per-value mix is an FNV-style multiply-xor strengthened with a
// Fibonacci multiplier so that dense integer keys (the TPC-H primary keys)
// spread over all 64 bits; strings fold through FNV-1a first. Multi-column
// keys combine batch-at-a-time: HashCol seeds from the first key column,
// RehashCol folds each further column into the running hash.

const (
	hashSeed  uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	hashPrime uint64 = 1099511628211        // FNV-1a 64-bit prime
)

// hashMix folds one 64-bit value into a running hash.
func hashMix(h, x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return (h ^ x) * hashPrime
}

// HashInt64 hashes a single integer key — the scalar entry point used for
// table partitioning, so storage placement and exchange routing agree.
func HashInt64(x int64) uint64 { return hashMix(hashSeed, uint64(x)) }

// HashString hashes a string with allocation-free FNV-1a.
func HashString(s string) uint64 {
	h := hashSeed
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// HashStart fills dst with the hash seed: the zero-key-columns degenerate
// case (every row identical).
func HashStart(dst []uint64) {
	for i := range dst {
		dst[i] = hashSeed
	}
}

// HashCol writes the hash of every value of v into dst[:v.Len()],
// overwriting dst (first key column). Int32 values are sign-extended so an
// int32 and an int64 column holding the same keys partition identically.
func HashCol(dst []uint64, v *Vec) {
	switch v.kind {
	case Int64:
		for i, x := range v.Int64s() {
			dst[i] = hashMix(hashSeed, uint64(x))
		}
	case Int32:
		for i, x := range v.Int32s() {
			dst[i] = hashMix(hashSeed, uint64(int64(x)))
		}
	case Float64:
		for i, x := range v.Float64s() {
			dst[i] = hashMix(hashSeed, math.Float64bits(x))
		}
	case String:
		if v.dict != nil {
			// Dictionary fast path: hash each distinct value once per block,
			// then gather by code. Bit-identical to the string path, so
			// exchange partitioning and joins agree across representations.
			hs := v.dict.CodeHashes(HashString)
			for i, c := range v.codes[:v.n] {
				dst[i] = hashMix(hashSeed, hs[c])
			}
			break
		}
		s := v.str
		for i := range v.n {
			dst[i] = hashMix(hashSeed, HashString(s.At(i)))
		}
	case Bool:
		for i, b := range v.Bools() {
			var x uint64
			if b {
				x = 1
			}
			dst[i] = hashMix(hashSeed, x)
		}
	default:
		HashStart(dst[:v.Len()])
	}
}

// RehashCol folds every value of v into the running hashes dst[:v.Len()]
// (second and later key columns).
func RehashCol(dst []uint64, v *Vec) {
	switch v.kind {
	case Int64:
		for i, x := range v.Int64s() {
			dst[i] = hashMix(dst[i], uint64(x))
		}
	case Int32:
		for i, x := range v.Int32s() {
			dst[i] = hashMix(dst[i], uint64(int64(x)))
		}
	case Float64:
		for i, x := range v.Float64s() {
			dst[i] = hashMix(dst[i], math.Float64bits(x))
		}
	case String:
		if v.dict != nil {
			hs := v.dict.CodeHashes(HashString)
			for i, c := range v.codes[:v.n] {
				dst[i] = hashMix(dst[i], hs[c])
			}
			break
		}
		s := v.str
		for i := range v.n {
			dst[i] = hashMix(dst[i], HashString(s.At(i)))
		}
	case Bool:
		for i, b := range v.Bools() {
			var x uint64
			if b {
				x = 1
			}
			dst[i] = hashMix(dst[i], x)
		}
	}
}

// HashCols hashes a multi-column key batch-at-a-time into dst: HashCol for
// the first column, RehashCol for the rest. dst must have the columns'
// length; zero columns hash every row to the seed.
func HashCols(dst []uint64, cols []*Vec) {
	if len(cols) == 0 {
		HashStart(dst)
		return
	}
	HashCol(dst, cols[0])
	for _, c := range cols[1:] {
		RehashCol(dst, c)
	}
}

// HashRow returns row r's entry of HashCols(dst, cols): the scalar entry
// point for a caller that hashes one representative row per distinct key
// instead of every row.
func HashRow(cols []*Vec, r int) uint64 {
	h := hashSeed
	for _, v := range cols {
		var x uint64
		switch v.kind {
		case Int64:
			x = uint64(v.i64[r])
		case Int32:
			x = uint64(int64(v.i32[r]))
		case Float64:
			x = math.Float64bits(v.f64[r])
		case String:
			if v.dict != nil {
				x = v.dict.CodeHashes(HashString)[v.codes[r]]
			} else {
				x = HashString(v.str.At(r))
			}
		case Bool:
			if v.b[r] {
				x = 1
			}
		default:
			continue
		}
		h = hashMix(h, x)
	}
	return h
}
