package vector

import (
	"fmt"
	"slices"
)

// Batch is a horizontal slice of a table: a set of equally long vectors plus
// an optional selection vector. When Sel is non-nil, only the positions it
// lists are logically present; vectors keep their full physical length so
// that filters avoid copying (the Vectorwise "selection vector" idiom).
type Batch struct {
	Vecs []*Vec
	Sel  []int32 // nil means all rows 0..Rows()-1 of the vectors are live
}

// NewBatch returns a batch over the given vectors with no selection.
func NewBatch(vecs ...*Vec) *Batch { return &Batch{Vecs: vecs} }

// NewBatchForSchema returns an empty batch with one empty vector per field.
func NewBatchForSchema(s Schema, capHint int) *Batch {
	b := &Batch{Vecs: make([]*Vec, len(s))}
	for i, f := range s {
		b.Vecs[i] = New(f.Type.Kind, capHint)
	}
	return b
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.physLen()
}

func (b *Batch) physLen() int {
	if len(b.Vecs) == 0 {
		return 0
	}
	return b.Vecs[0].Len()
}

// NumCols returns the number of vectors.
func (b *Batch) NumCols() int { return len(b.Vecs) }

// Col returns vector i.
func (b *Batch) Col(i int) *Vec { return b.Vecs[i] }

// Compact materializes the selection vector: it returns a batch with dense
// vectors and a nil Sel. A batch that is already dense is returned unchanged.
func (b *Batch) Compact() *Batch {
	if b.Sel == nil {
		return b
	}
	out := &Batch{Vecs: make([]*Vec, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Gather(b.Sel, len(b.Sel))
	}
	return out
}

// Row extracts row i (a live-row index, resolved through Sel) as dynamically
// typed values; intended for tests and result rendering, not inner loops.
func (b *Batch) Row(i int) []any {
	phys := i
	if b.Sel != nil {
		phys = int(b.Sel[i])
	}
	row := make([]any, len(b.Vecs))
	for c, v := range b.Vecs {
		row[c] = v.Get(phys)
	}
	return row
}

// BoxRows appends the live rows of bs to dst as dynamically typed values
// and returns the extended slice. The rows of one call are slices of one
// []any backing (capped, so appending to a row never reaches the next), and
// the values copy out of the batches, so they stay valid after the batches
// are reused. It is where result batches become [][]any rows.
func BoxRows(dst [][]any, bs ...*Batch) [][]any {
	rows, cells := 0, 0
	for _, b := range bs {
		rows += b.Len()
		cells += b.Len() * len(b.Vecs)
	}
	vals := make([]any, cells)
	dst = slices.Grow(dst, rows)
	for _, b := range bs {
		n, nc := b.Len(), len(b.Vecs)
		first := len(dst)
		for r := range n {
			dst = append(dst, vals[r*nc:(r+1)*nc:(r+1)*nc])
		}
		for c, v := range b.Vecs {
			for r, row := range dst[first:] {
				i := r
				if b.Sel != nil {
					i = int(b.Sel[r])
				}
				row[c] = v.Get(i)
			}
		}
		vals = vals[n*nc:]
	}
	return dst
}

// AppendRow appends dynamically typed values to a dense batch.
func (b *Batch) AppendRow(vals ...any) {
	if b.Sel != nil {
		panic("vector: AppendRow on batch with selection")
	}
	if len(vals) != len(b.Vecs) {
		panic(fmt.Sprintf("vector: AppendRow with %d values on %d columns", len(vals), len(b.Vecs)))
	}
	for i, x := range vals {
		b.Vecs[i].AppendAny(x)
	}
}

// Bytes estimates the live payload size of the batch.
func (b *Batch) Bytes() int {
	total := 0
	for _, v := range b.Vecs {
		total += v.Bytes()
	}
	return total
}

// Project returns a batch exposing only the listed columns, sharing vectors
// and the selection with the receiver.
func (b *Batch) Project(cols []int) *Batch {
	out := &Batch{Vecs: make([]*Vec, len(cols)), Sel: b.Sel}
	for i, c := range cols {
		out.Vecs[i] = b.Vecs[c]
	}
	return out
}
