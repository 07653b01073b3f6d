package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// StrCol is a column of strings without per-value headers: one byte arena
// holding the values back to back, and Len()+1 offsets into it, value i
// being the arena's bytes [offs[i], offs[i+1]). The garbage collector marks
// one arena per column instead of one string per value, and At returns a
// substring of the arena without allocating.
//
// The arena is append-only and never rewritten: appends write past every
// byte a value already covers, and Reset starts a new arena, so a
// string At returned keeps its value as long as it lives, as Go strings do.
// Appends go through a strings.Builder, whose String is the prefix written
// so far — the way to read appended bytes as a string without copying them.
//
// The zero StrCol is an empty column. Slice makes a view that shares the
// arena; a view, or a column wrapping a decoded arena, moves its values to
// an arena of its own at its first append. Of the copies of a StrCol made
// by assignment, only one may append; the others are read-only views.
type StrCol struct {
	arena string
	offs  []uint32
	sb    *strings.Builder // where appends go; nil until this column owns its arena
}

// MaxBytes is the most value bytes a column holds: its offsets are uint32.
const MaxBytes = math.MaxUint32

// StrColOf copies vals into a new column.
func StrColOf(vals []string) StrCol {
	var c StrCol
	c.Reserve(len(vals), 0)
	for _, s := range vals {
		c.Append(s)
	}
	return c
}

// Len returns the number of values.
func (c *StrCol) Len() int { return max(len(c.offs)-1, 0) }

// At returns value i, sharing the arena's bytes.
func (c *StrCol) At(i int) string { return c.arena[c.offs[i]:c.offs[i+1]] }

// ValueBytes returns the total length of the values.
func (c *StrCol) ValueBytes() int {
	if len(c.offs) == 0 {
		return 0
	}
	return int(c.offs[len(c.offs)-1] - c.offs[0])
}

// Fits reports whether b more value bytes keep the column within MaxBytes.
func (c *StrCol) Fits(b int) bool { return c.ValueBytes()+b <= MaxBytes }

// Slice returns a view of values [lo, hi) sharing the arena. Its offsets'
// capacity ends at hi, so an append to the view cannot reach the column's.
func (c *StrCol) Slice(lo, hi int) StrCol {
	if len(c.offs) == 0 {
		return StrCol{}
	}
	return StrCol{arena: c.arena[:c.offs[hi]], offs: c.offs[lo : hi+1 : hi+1]}
}

// Reserve makes room for n more values of b bytes in total.
func (c *StrCol) Reserve(n, b int) {
	if c.sb == nil {
		c.own(b)
	} else {
		c.sb.Grow(b)
	}
	c.offs = slices.Grow(c.offs, n)
}

// own moves the values to a new arena of this column's own with room for
// extra more bytes, and the offsets to a new slice rebased on it.
func (c *StrCol) own(extra int) {
	v := c.Slice(0, c.Len())
	sb := new(strings.Builder)
	sb.Grow(v.ValueBytes() + extra)
	offs := make([]uint32, 1, v.Len()+1)
	for _, o := range v.offs[min(len(v.offs), 1):] {
		offs = append(offs, o-v.offs[0])
	}
	sb.WriteString(v.arena[len(v.arena)-v.ValueBytes():]) // a view's arena ends at its last value
	c.arena, c.offs, c.sb = sb.String(), offs, sb
}

// Append appends one value, copying its bytes into the arena.
func (c *StrCol) Append(s string) {
	if c.sb == nil {
		c.own(len(s))
	}
	c.sb.WriteString(s)
	c.wrote()
	c.offs = append(c.offs, uint32(len(c.arena)))
}

// wrote makes the bytes just written through sb part of the arena.
func (c *StrCol) wrote() {
	c.arena = c.sb.String()
	if len(c.arena) > MaxBytes {
		// Vectors that gather a whole input check Fits and return an error.
		panic("compress: string column exceeds MaxBytes")
	}
}

// AppendRange appends values [lo, hi) of src with one copy of their bytes.
func (c *StrCol) AppendRange(src *StrCol, lo, hi int) {
	if lo == hi {
		return
	}
	if c.sb == nil {
		c.own(int(src.offs[hi] - src.offs[lo]))
	}
	from, to := src.offs[lo], src.offs[hi] // after own: src may be c
	base := uint32(c.sb.Len()) - from      // offsets move by this, modulo 2^32
	c.sb.WriteString(src.arena[from:to])
	c.wrote()
	for _, o := range src.offs[lo+1 : hi+1] {
		c.offs = append(c.offs, o+base)
	}
}

// Reset empties the column into a new arena with the old one's capacity.
// The builder starts over on a new buffer; the strings already read keep
// the old one.
func (c *StrCol) Reset() {
	if c.sb == nil {
		*c = StrCol{}
		return
	}
	n := c.sb.Cap()
	*c.sb = strings.Builder{}
	c.sb.Grow(n)
	c.arena, c.offs = "", append(c.offs[:0], 0)
}

// DecodeLenPrefixed decodes n values, each a uvarint length and that many
// bytes, from the front of data, and returns the bytes after them. It costs
// two allocations, arena and offsets, sized only once n has been checked
// against len(data): every value takes at least its length byte. A length
// below 128, one byte, is read inline in both passes.
func DecodeLenPrefixed(data []byte, n uint64) (StrCol, []byte, error) {
	if n > uint64(len(data)) {
		return StrCol{}, nil, fmt.Errorf("%w: %d strings claimed in %d bytes", ErrCorrupt, n, len(data))
	}
	total, p := uint64(0), 0
	for i := uint64(0); i < n; i++ {
		l, sz := uint64(0), 1
		if p < len(data) && data[p] < 0x80 {
			l = uint64(data[p])
		} else if l, sz = binary.Uvarint(data[p:]); sz <= 0 {
			return StrCol{}, nil, fmt.Errorf("%w: truncated string %d of %d", ErrCorrupt, i, n)
		}
		p += sz
		if uint64(len(data)-p) < l {
			return StrCol{}, nil, fmt.Errorf("%w: truncated string %d of %d", ErrCorrupt, i, n)
		}
		total += l
		p += int(l)
	}
	if total > MaxBytes {
		return StrCol{}, nil, fmt.Errorf("%w: %d string bytes in one column", ErrCorrupt, total)
	}
	var sb strings.Builder
	sb.Grow(int(total))
	offs := make([]uint32, n+1)
	q := 0
	for i := range offs[1:] {
		l, sz := int(data[q]), 1
		if l >= 0x80 {
			v, vsz := binary.Uvarint(data[q:])
			l, sz = int(v), vsz
		}
		q += sz
		sb.Write(data[q : q+l])
		q += l
		offs[i+1] = uint32(sb.Len())
	}
	return StrCol{arena: sb.String(), offs: offs}, data[p:], nil
}
