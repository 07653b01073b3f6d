package vector

import (
	"fmt"

	"vectorh/internal/compress"
)

// Vec is a typed column vector holding up to MaxSize values (more is allowed
// for intermediate buffers, but operators produce at most MaxSize). The zero
// Vec is invalid; use New or one of the From constructors.
type Vec struct {
	kind Kind
	n    int

	b   []bool
	i32 []int32
	i64 []int64
	f64 []float64
	str compress.StrCol // one arena and offsets: no header per value

	// Dictionary-code form of a String vector (see dict.go): when dict is
	// non-nil, values are dict.Values[codes[i]] and str is unset until the
	// vector materializes.
	codes []uint32
	dict  *compress.StrDict
}

// New returns an empty vector of the given kind with capacity for capHint
// values (MaxSize if capHint <= 0).
func New(kind Kind, capHint int) *Vec {
	if capHint <= 0 {
		capHint = MaxSize
	}
	v := &Vec{kind: kind}
	switch kind {
	case Bool:
		v.b = make([]bool, 0, capHint)
	case Int32:
		v.i32 = make([]int32, 0, capHint)
	case Int64:
		v.i64 = make([]int64, 0, capHint)
	case Float64:
		v.f64 = make([]float64, 0, capHint)
	case String:
		v.str.Reserve(capHint, 0)
	default:
		panic(fmt.Sprintf("vector: New with kind %v", kind))
	}
	return v
}

// FromBool wraps an existing slice without copying.
func FromBool(vals []bool) *Vec { return &Vec{kind: Bool, n: len(vals), b: vals} }

// FromInt32 wraps an existing slice without copying.
func FromInt32(vals []int32) *Vec { return &Vec{kind: Int32, n: len(vals), i32: vals} }

// FromInt64 wraps an existing slice without copying.
func FromInt64(vals []int64) *Vec { return &Vec{kind: Int64, n: len(vals), i64: vals} }

// FromFloat64 wraps an existing slice without copying.
func FromFloat64(vals []float64) *Vec { return &Vec{kind: Float64, n: len(vals), f64: vals} }

// FromString copies vals into a new String vector's arena.
func FromString(vals []string) *Vec {
	return &Vec{kind: String, n: len(vals), str: compress.StrColOf(vals)}
}

// FromStrCol wraps a string column without copying, as a view: an append
// to the vector moves it to an arena of its own.
func FromStrCol(c compress.StrCol) *Vec {
	return &Vec{kind: String, n: c.Len(), str: c.Slice(0, c.Len())}
}

// Const returns a vector of n copies of the given value (Go value must match
// the kind: bool, int32, int64, float64 or string).
func Const(kind Kind, val any, n int) *Vec {
	v := New(kind, max(n, 1)) // New(kind, 0) would reserve MaxSize for an empty batch
	for i := 0; i < n; i++ {
		v.AppendAny(val)
	}
	return v
}

// Kind returns the vector's physical kind.
func (v *Vec) Kind() Kind { return v.kind }

// Len returns the number of values.
func (v *Vec) Len() int { return v.n }

// Reset truncates the vector to zero length, keeping capacity. A string
// vector starts a new arena, so strings already read from it keep their
// values; a dictionary vector resets to a plain (empty) string vector.
func (v *Vec) Reset() {
	v.n = 0
	v.b = v.b[:0]
	v.i32 = v.i32[:0]
	v.i64 = v.i64[:0]
	v.f64 = v.f64[:0]
	v.str.Reset()
	v.codes, v.dict = nil, nil
}

// Resize sets the length to n, reusing the vector's capacity and growing it
// when short; the n values are unspecified until the caller overwrites them.
// Together with GatherFrom it is how operator-owned scratch vectors (the
// registers of an expr.Program) are refilled batch after batch without
// allocating. Only for vectors the caller created with New and has not handed
// downstream. A string vector starts a new arena holding n empty strings:
// its values are appended, never overwritten.
func (v *Vec) Resize(n int) {
	switch v.kind {
	case Bool:
		v.b = resize(v.b, n)
	case Int32:
		v.i32 = resize(v.i32, n)
	case Int64:
		v.i64 = resize(v.i64, n)
	case Float64:
		v.f64 = resize(v.f64, n)
	case String:
		v.str.Reset()
		for range n {
			v.str.Append("")
		}
	default:
		panic("vector: Resize on invalid vector")
	}
	v.n, v.dict = n, nil
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		// At least doubling: a buffer refilled with batches of growing size
		// reallocates a logarithmic number of times, not once per size.
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// GatherFrom overwrites v with src[sel[i]] for every position of sel (same
// kind), reusing v's buffers: the allocation-free form of Gather, under the
// ownership rule of Resize. A dictionary source stays in code form.
func (v *Vec) GatherFrom(src *Vec, sel []int32) {
	if src.dict != nil {
		v.codes, v.dict, v.n = resize(v.codes, len(sel)), src.dict, len(sel)
		gather(v.codes, src.codes, sel)
		return
	}
	if v.kind == String {
		v.Reset()
		v.AppendGather(src, sel)
		return
	}
	v.Resize(len(sel))
	switch v.kind {
	case Bool:
		gather(v.b, src.b, sel)
	case Int32:
		gather(v.i32, src.i32, sel)
	case Int64:
		gather(v.i64, src.i64, sel)
	case Float64:
		gather(v.f64, src.f64, sel)
	}
}

func gather[T any](dst, src []T, sel []int32) {
	for i, s := range sel {
		dst[i] = src[s]
	}
}

// Bools returns the backing slice of a Bool vector.
func (v *Vec) Bools() []bool { v.check(Bool); return v.b[:v.n] }

// Int32s returns the backing slice of an Int32 vector.
func (v *Vec) Int32s() []int32 { v.check(Int32); return v.i32[:v.n] }

// Int64s returns the backing slice of an Int64 vector.
func (v *Vec) Int64s() []int64 { v.check(Int64); return v.i64[:v.n] }

// Float64s returns the backing slice of a Float64 vector.
func (v *Vec) Float64s() []float64 { v.check(Float64); return v.f64[:v.n] }

// Strings returns the values of a String vector as a new slice, which the
// vector does not keep (bench and tests only: operators read StrAt).
func (v *Vec) Strings() []string {
	v.check(String)
	out := make([]string, v.n)
	for i := range out {
		out[i] = v.StrAt(i)
	}
	return out
}

func (v *Vec) check(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("vector: %v access on %v vector", k, v.kind))
	}
}

// AppendBool appends to a Bool vector.
func (v *Vec) AppendBool(x bool) { v.check(Bool); v.b = append(v.b, x); v.n++ }

// AppendInt32 appends to an Int32 vector.
func (v *Vec) AppendInt32(x int32) { v.check(Int32); v.i32 = append(v.i32, x); v.n++ }

// AppendInt64 appends to an Int64 vector.
func (v *Vec) AppendInt64(x int64) { v.check(Int64); v.i64 = append(v.i64, x); v.n++ }

// AppendFloat64 appends to a Float64 vector.
func (v *Vec) AppendFloat64(x float64) { v.check(Float64); v.f64 = append(v.f64, x); v.n++ }

// AppendString appends to a String vector (materializing a dictionary
// vector: appended values have no code in the block dictionary).
func (v *Vec) AppendString(x string) {
	v.check(String)
	if v.dict != nil {
		v.materialize()
	}
	v.str.Append(x)
	v.n++
}

// AppendAny appends a dynamically typed value; the value's Go type must match
// the vector kind.
func (v *Vec) AppendAny(x any) {
	switch v.kind {
	case Bool:
		v.AppendBool(x.(bool))
	case Int32:
		v.AppendInt32(x.(int32))
	case Int64:
		v.AppendInt64(x.(int64))
	case Float64:
		v.AppendFloat64(x.(float64))
	case String:
		v.AppendString(x.(string))
	default:
		panic("vector: AppendAny on invalid vector")
	}
}

// Get returns element i as a dynamically typed value.
func (v *Vec) Get(i int) any {
	switch v.kind {
	case Bool:
		return v.b[i]
	case Int32:
		return v.i32[i]
	case Int64:
		return v.i64[i]
	case Float64:
		return v.f64[i]
	case String:
		return v.StrAt(i)
	default:
		panic("vector: Get on invalid vector")
	}
}

// AppendFrom appends element i of src (which must have the same kind).
func (v *Vec) AppendFrom(src *Vec, i int) {
	switch v.kind {
	case Bool:
		v.AppendBool(src.b[i])
	case Int32:
		v.AppendInt32(src.i32[i])
	case Int64:
		v.AppendInt64(src.i64[i])
	case Float64:
		v.AppendFloat64(src.f64[i])
	case String:
		v.AppendString(src.StrAt(i))
	default:
		panic("vector: AppendFrom on invalid vector")
	}
}

// AppendRange bulk-appends src[lo:hi] (same kind) column-wise, avoiding the
// per-value kind dispatch of AppendFrom on build/emit hot paths.
func (v *Vec) AppendRange(src *Vec, lo, hi int) {
	switch v.kind {
	case Bool:
		v.b = append(v.b, src.b[lo:hi]...)
	case Int32:
		v.i32 = append(v.i32, src.i32[lo:hi]...)
	case Int64:
		v.i64 = append(v.i64, src.i64[lo:hi]...)
	case Float64:
		v.f64 = append(v.f64, src.f64[lo:hi]...)
	case String:
		if v.dict != nil {
			v.materialize()
		}
		if src.dict == nil {
			v.str.AppendRange(&src.str, lo, hi)
			break
		}
		v.str.Reserve(hi-lo, src.rangeBytes(lo, hi))
		for _, c := range src.codes[lo:hi] {
			v.str.Append(src.dict.Values[c])
		}
	default:
		panic("vector: AppendRange on invalid vector")
	}
	v.n += hi - lo
}

// ErrStringBytes: a string vector holds at most compress.MaxBytes (4 GiB).
var ErrStringBytes = fmt.Errorf("vector: a string vector holds at most %d bytes", compress.MaxBytes)

// AppendRangeChecked is AppendRange for a vector that gathers a whole input
// (a join's build side, a sort's input, a hash table's keys, a load): where
// a string vector would pass compress.MaxBytes it appends nothing and
// returns ErrStringBytes. A vector holding a batch or a few appends unchecked.
func (v *Vec) AppendRangeChecked(src *Vec, lo, hi int) error {
	if v.kind == String && !v.str.Fits(src.rangeBytes(lo, hi)) {
		return ErrStringBytes
	}
	v.AppendRange(src, lo, hi)
	return nil
}

// AppendRowsChecked appends a batch column's live rows, those sel selects
// or all for a nil sel, under AppendRangeChecked's check.
func (v *Vec) AppendRowsChecked(src *Vec, sel []int32) error {
	if sel == nil {
		return v.AppendRangeChecked(src, 0, src.n)
	}
	if v.kind == String && !v.str.Fits(src.strBytes(sel)) {
		return ErrStringBytes
	}
	v.AppendGather(src, sel)
	return nil
}

// AppendGather appends src[sel[i]] for every position of sel, column-wise.
// Negative indices append the kind's zero value (outer-join padding).
func (v *Vec) AppendGather(src *Vec, sel []int32) {
	switch v.kind {
	case Bool:
		for _, i := range sel {
			if i < 0 {
				v.b = append(v.b, false)
			} else {
				v.b = append(v.b, src.b[i])
			}
		}
	case Int32:
		for _, i := range sel {
			if i < 0 {
				v.i32 = append(v.i32, 0)
			} else {
				v.i32 = append(v.i32, src.i32[i])
			}
		}
	case Int64:
		for _, i := range sel {
			if i < 0 {
				v.i64 = append(v.i64, 0)
			} else {
				v.i64 = append(v.i64, src.i64[i])
			}
		}
	case Float64:
		for _, i := range sel {
			if i < 0 {
				v.f64 = append(v.f64, 0)
			} else {
				v.f64 = append(v.f64, src.f64[i])
			}
		}
	case String:
		if v.dict != nil {
			v.materialize()
		}
		v.str.Reserve(len(sel), src.strBytes(sel))
		for _, i := range sel {
			if i < 0 {
				v.str.Append("")
			} else {
				v.str.Append(src.StrAt(int(i)))
			}
		}
	default:
		panic("vector: AppendGather on invalid vector")
	}
	v.n += len(sel)
}

// Gather returns a new dense vector with the values at the given positions.
// A nil sel returns a copy of the first n values. Gathering a dictionary
// vector gathers codes and keeps the dictionary handle, so selection and
// join payload gathers stay in code space.
func (v *Vec) Gather(sel []int32, n int) *Vec {
	if sel != nil {
		out := &Vec{kind: v.kind}
		out.GatherFrom(v, sel)
		return out
	}
	if v.dict != nil {
		return FromDictCodes(append(make([]uint32, 0, n), v.codes[:n]...), v.dict)
	}
	out := New(v.kind, n)
	out.AppendRange(v, 0, n)
	return out
}

// Slice returns a view of elements [lo, hi) without copying.
func (v *Vec) Slice(lo, hi int) *Vec {
	out := &Vec{kind: v.kind, n: hi - lo}
	if v.dict != nil {
		out.codes, out.dict = v.codes[lo:hi], v.dict
		return out
	}
	switch v.kind {
	case Bool:
		out.b = v.b[lo:hi]
	case Int32:
		out.i32 = v.i32[lo:hi]
	case Int64:
		out.i64 = v.i64[lo:hi]
	case Float64:
		out.f64 = v.f64[lo:hi]
	case String:
		out.str = v.str.Slice(lo, hi)
	}
	return out
}

// strWidth is what Bytes charges a string value beyond its bytes: its
// offset in the arena.
const strWidth = 4

// strBytes sums the lengths of the string values sel selects; negative
// indices select "".
func (v *Vec) strBytes(sel []int32) int {
	total := 0
	for _, i := range sel {
		if i >= 0 {
			total += len(v.StrAt(int(i)))
		}
	}
	return total
}

// rangeBytes sums the lengths of string values [lo, hi).
func (v *Vec) rangeBytes(lo, hi int) int {
	if v.dict == nil {
		r := v.str.Slice(lo, hi)
		return r.ValueBytes()
	}
	total := 0
	for _, c := range v.codes[lo:hi] {
		total += len(v.dict.Values[c])
	}
	return total
}

// Bytes returns an estimate of the in-memory payload size.
func (v *Vec) Bytes() int {
	if v.kind != String {
		return v.n * v.kind.Width()
	}
	if v.dict != nil {
		return v.n * 4
	}
	return v.str.ValueBytes() + v.n*strWidth
}
