package exec

import (
	"fmt"
	"sort"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// SortKey is one ordering term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort materializes its child and emits it ordered by the keys.
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

// materializeAll drains the child into one big dense batch.
func materializeAll(child Operator) (*vector.Batch, error) {
	var all *vector.Batch
	for {
		b, err := child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return all, nil
		}
		if all == nil {
			all = &vector.Batch{Vecs: newCols(nil, b)}
		}
		for i, v := range b.Vecs {
			if err := all.Vecs[i].AppendRowsChecked(v, b.Sel); err != nil {
				return nil, fmt.Errorf("exec: sort input: %w", err)
			}
		}
	}
}

// sortPerm computes the permutation ordering the batch by keys, evaluated by
// prog (compileSortKeys of the same keys).
func sortPerm(b *vector.Batch, keys []SortKey, prog *expr.Program) ([]int32, error) {
	keyVecs := make([]*vector.Vec, len(keys))
	if err := prog.RunInto(b, keyVecs); err != nil {
		return nil, err
	}
	perm := make([]int32, b.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(x, y int) bool {
		for ki, kv := range keyVecs {
			c := compareAt(kv, int(perm[x]), int(perm[y]))
			if c == 0 {
				continue
			}
			if keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return perm, nil
}

func compareAt(v *vector.Vec, x, y int) int {
	switch v.Kind() {
	case vector.Int64:
		a, b := v.Int64s()[x], v.Int64s()[y]
		return cmpOrdered(a, b)
	case vector.Int32:
		a, b := v.Int32s()[x], v.Int32s()[y]
		return cmpOrdered(a, b)
	case vector.Float64:
		a, b := v.Float64s()[x], v.Float64s()[y]
		return cmpOrdered(a, b)
	case vector.String:
		return cmpOrdered(v.StrAt(x), v.StrAt(y))
	case vector.Bool:
		a, b := v.Bools()[x], v.Bools()[y]
		switch {
		case a == b:
			return 0
		case !a:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func cmpOrdered[T int32 | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if !s.done {
		all, err := materializeAll(s.Child)
		if err != nil {
			return nil, err
		}
		s.done = true
		if all == nil {
			return nil, nil
		}
		s.perm, err = sortPerm(all, s.Keys, s.prog)
		if err != nil {
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

// TopN emits the first N rows of the sorted order (ORDER BY ... LIMIT n /
// the paper's TopN operator with partial/final flavors around a
// DXchgUnion). It materializes only what the child produces and keeps a
// bounded candidate set.
type TopN struct {
	Child Operator
	Keys  []SortKey
	N     int

	prog *expr.Program
	out  Operator
	init bool
}

// Open implements Operator.
func (t *TopN) Open() (err error) {
	t.out, t.init = nil, false
	if t.prog, err = compileSortKeys(t.Keys); err != nil {
		return err
	}
	return t.Child.Open()
}

// Close implements Operator.
func (t *TopN) Close() error { return t.Child.Close() }

// Next implements Operator.
func (t *TopN) Next() (*vector.Batch, error) {
	if !t.init {
		all, err := materializeAll(t.Child)
		if err != nil {
			return nil, err
		}
		t.init = true
		if all == nil {
			t.out = &BatchSource{}
		} else {
			perm, err := sortPerm(all, t.Keys, t.prog)
			if err != nil {
				return nil, err
			}
			if len(perm) > t.N {
				perm = perm[:t.N]
			}
			t.out = &BatchSource{Batches: []*vector.Batch{{Vecs: all.Vecs, Sel: perm}}}
		}
		t.out.Open()
	}
	return t.out.Next()
}
