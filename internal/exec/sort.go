package exec

import (
	"cmp"
	"fmt"
	"strings"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// SortKey is one ordering term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort materializes its child and emits it ordered by the keys, stably:
// rows whose keys tie leave in the order they arrived. ORDER BY ... LIMIT n
// (the paper's TopN, partial per stream and final above the union) is a
// Sort under a Limit.
type Sort struct {
	Child Operator
	Keys  []SortKey

	prog    *expr.Program
	sorted  *vector.Batch
	perm    []int32
	emitted int
	done    bool
}

// Open implements Operator.
func (s *Sort) Open() (err error) {
	s.sorted, s.perm, s.emitted, s.done = nil, nil, 0, false
	if s.prog, err = compileSortKeys(s.Keys); err != nil {
		return err
	}
	return s.Child.Open()
}

func compileSortKeys(keys []SortKey) (*expr.Program, error) {
	exprs := make([]expr.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return expr.Compile(exprs...)
}

// Close implements Operator.
func (s *Sort) Close() error { return s.Child.Close() }

// sortPerm computes the permutation ordering the batch by keys, evaluated by
// prog (compileSortKeys of the same keys). The order is stable: rows whose
// keys all compare equal keep their arrival order.
func sortPerm(b *vector.Batch, keys []SortKey, prog *expr.Program) ([]int32, error) {
	keyVecs := make([]*vector.Vec, len(keys))
	if err := prog.RunInto(b, keyVecs); err != nil {
		return nil, err
	}
	cmps := make([]rowCmp, len(keys))
	for i, k := range keys {
		cmps[i] = bindKey(keyVecs[i], k.Desc)
	}
	compare := func(x, y int32) int {
		for _, c := range cmps {
			if r := c(x, y); r != 0 {
				return r
			}
		}
		return 0
	}
	if len(cmps) == 1 {
		compare = cmps[0]
	}
	perm := make([]int32, b.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	return mergeSort(perm, compare), nil
}

// rowCmp compares two rows of a batch: negative, zero or positive as row x
// sorts before, with or after row y.
type rowCmp func(x, y int32) int

// bindKey binds one sort key to a comparator over its vector's typed
// values, Desc folded in. Floats order as cmp.Compare does: NaN first.
func bindKey(v *vector.Vec, desc bool) rowCmp {
	switch v.Kind() {
	case vector.Int32:
		return ordered(v.Int32s(), desc)
	case vector.Int64:
		return ordered(v.Int64s(), desc)
	case vector.Float64:
		return ordered(v.Float64s(), desc)
	case vector.Bool:
		vals := v.Bools()
		return by(desc, func(x, y int32) int { return boolCompare(vals[x], vals[y]) })
	case vector.String:
		return by(desc, func(x, y int32) int { return strings.Compare(v.StrAt(int(x)), v.StrAt(int(y))) })
	}
	panic(fmt.Sprintf("exec: sort key of kind %v", v.Kind()))
}

func ordered[T cmp.Ordered](vals []T, desc bool) rowCmp {
	if desc {
		return func(x, y int32) int { return cmp.Compare(vals[y], vals[x]) }
	}
	return func(x, y int32) int { return cmp.Compare(vals[x], vals[y]) }
}

// by returns asc, or asc with its arguments swapped when desc.
func by(desc bool, asc rowCmp) rowCmp {
	if desc {
		return func(x, y int32) int { return asc(y, x) }
	}
	return asc
}

func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}

// mergeSort sorts perm stably by compare with a natural merge sort. One pass
// splits perm into its ascending runs; adjacent runs are then merged
// pairwise, ties taken from the left run, back and forth between perm and
// one scratch slice until one run is left. Presorted input costs that one
// pass, r runs O(n log r) comparisons. The result is perm or the scratch.
func mergeSort(perm []int32, compare rowCmp) []int32 {
	bounds := []int{0} // run i is [bounds[i], bounds[i+1])
	for i := 1; i < len(perm); i++ {
		if compare(perm[i-1], perm[i]) > 0 {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(perm))
	if len(bounds) <= 2 {
		return perm
	}
	src, dst := perm, make([]int32, len(perm))
	for len(bounds) > 2 {
		w := 1
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			merge(dst[lo:hi], src[lo:mid], src[mid:hi], compare)
			bounds[w] = hi
			w++
		}
		bounds = bounds[:w]
		src, dst = dst, src
	}
	return src
}

// merge merges the sorted runs a and b into dst, taking ties from a.
func merge(dst, a, b []int32, compare rowCmp) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if compare(b[j], a[i]) < 0 {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if !s.done {
		cols, err := drainCols(s.Child, nil, "sort input")
		if err != nil {
			return nil, err
		}
		s.done = true
		if cols == nil {
			return nil, nil
		}
		all := &vector.Batch{Vecs: cols}
		if s.perm, err = sortPerm(all, s.Keys, s.prog); err != nil {
			return nil, err
		}
		s.sorted = all
	}
	if s.sorted == nil || s.emitted >= len(s.perm) {
		return nil, nil
	}
	lo := s.emitted
	hi := lo + vector.MaxSize
	if hi > len(s.perm) {
		hi = len(s.perm)
	}
	s.emitted = hi
	return &vector.Batch{Vecs: s.sorted.Vecs, Sel: s.perm[lo:hi]}, nil
}
