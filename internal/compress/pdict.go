package compress

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// maxDictEntries caps the PDICT dictionary; values beyond the cap (or runs of
// values too rare to be worth a slot) become patched exceptions.
const maxDictEntries = 1 << 16

// dictIndex maps a block's distinct values to entry ids — the one
// string-keyed map of the encode path: one lookup per value, and the map is
// reused across an Encoder's blocks.
//
//lint:hotpath the one dictionary build
type dictIndex map[string]uint32

// dictEntry is one distinct value of a block during the dictionary build.
type dictEntry struct {
	s    string
	freq int
	id   uint32 // creation order, which is the order of first occurrence
}

// PDictEncode compresses strings with patched dictionary encoding: frequent
// values get thin fixed-width dictionary codes, infrequent values are stored
// verbatim as exceptions threaded through the code stream. It copies vals
// into a StrCol first (bench and tests only).
func PDictEncode(vals []string) []byte {
	var e Encoder
	if len(vals) == 0 {
		return []byte{tagPDict, 0}
	}
	c := StrColOf(vals)
	e.planDict(&c)
	return e.emitDict(nil, &c)
}

// planDict builds the block's dictionary — distinct values by descending
// frequency, ties broken by first occurrence for determinism, capped at
// maxDictEntries — and stages codes and exception chain in e.plain. One map
// lookup per value assigns entry ids; codes follow from the sort
// permutation. It returns the exact size of the PDICT block and the size of
// the length-prefixed raw body the LZ alternative would compress.
func (e *Encoder) planDict(vals *StrCol) (dictSize, rawLen int) {
	n := vals.Len()
	if e.index == nil {
		e.index = make(dictIndex, 64)
	}
	clear(e.index)
	e.entries = e.entries[:0]
	e.ids = grow(e.ids, n)
	for i := range n {
		s := vals.At(i)
		rawLen += uvarintLen(uint64(len(s))) + len(s)
		id, ok := e.index[s]
		if !ok {
			id = uint32(len(e.entries))
			e.index[s] = id
			e.entries = append(e.entries, dictEntry{s: s, id: id})
		}
		e.entries[id].freq++
		e.ids[i] = id
	}
	// Order by (frequency desc, id asc). Values seen once — most of a
	// high-cardinality block — already stand in id order and sort behind
	// everything else, so only the repeated values go through the sort.
	repeated, once := e.ordered[:0], 0
	for _, en := range e.entries {
		if en.freq > 1 {
			repeated = append(repeated, en)
		} else {
			e.entries[once] = en
			once++
		}
	}
	slices.SortFunc(repeated, func(a, b dictEntry) int {
		if a.freq != b.freq {
			return cmp.Compare(b.freq, a.freq)
		}
		return cmp.Compare(a.id, b.id)
	})
	e.entries, e.ordered = append(repeated, e.entries[:once]...), e.entries[:0]
	e.rank = grow(e.rank, len(e.entries))
	for code, en := range e.entries {
		e.rank[en.id] = uint32(code)
	}
	if len(e.entries) > maxDictEntries {
		e.entries = e.entries[:maxDictEntries]
	}

	p := &e.plain
	p.w = max(1, bitsFor(uint64(len(e.entries)-1)))
	sentinel := uint64(1) << uint(p.w)
	p.codes = grow(p.codes, n)
	for i, id := range e.ids {
		if c := uint64(e.rank[id]); c < uint64(len(e.entries)) {
			p.codes[i] = c
		} else {
			p.codes[i] = sentinel
		}
	}
	p.plan = exceptionPlan(p.plan[:0], p.codes, p.w)

	dictSize = 1 + uvarintLen(uint64(n)) + uvarintLen(uint64(len(e.entries))) + 1 + p.chainLen(n)
	for _, en := range e.entries {
		dictSize += uvarintLen(uint64(len(en.s))) + len(en.s)
	}
	for _, pos := range p.plan {
		l := len(vals.At(pos))
		dictSize += uvarintLen(uint64(l)) + l
	}
	return dictSize, rawLen
}

// emitDict appends the PDICT block planDict staged for vals.
func (e *Encoder) emitDict(out []byte, vals *StrCol) []byte {
	out = binary.AppendUvarint(append(out, tagPDict), uint64(vals.Len()))
	out = binary.AppendUvarint(out, uint64(len(e.entries)))
	for _, en := range e.entries {
		out = binary.AppendUvarint(out, uint64(len(en.s)))
		out = append(out, en.s...)
	}
	out = append(out, byte(e.plain.w))
	out = e.plain.appendChain(out, vals.Len())
	for _, pos := range e.plain.plan {
		out = appendLenPrefixed(out, vals.At(pos))
	}
	return out
}

func appendLenPrefixed(out []byte, s string) []byte {
	return append(binary.AppendUvarint(out, uint64(len(s))), s...)
}

// PDictDecodeScratch decodes a PDictEncode block and appends its values to
// dst: a []string adapter over the arena decode (bench and tests only).
func PDictDecodeScratch(data []byte, dst []string, s *Scratch) ([]string, error) {
	if len(data) == 0 || data[0] != tagPDict {
		return nil, fmt.Errorf("%w: expected PDICT", ErrCorrupt)
	}
	c, err := DecodeStringsScratch(data, s) // empty on error
	for i := range c.Len() {
		dst = append(dst, c.At(i))
	}
	return dst, err
}

// pdictLayout is a parsed PDICT block header: where its sections lie. The
// dictionary entries are checked against the bytes present; the exception
// values, which follow the packed codes, are not.
type pdictLayout struct {
	n, w   int
	dn     int
	dict   []byte // dn length-prefixed entries first, then the rest of the block
	dictSz int    // the entries' bytes
	fe, ne uint64 // first exception position, exception count
	packed []byte // the n w-bit codes
	exc    []byte // ne length-prefixed exception values, and anything after
}

func parsePDict(data []byte) (pdictLayout, error) {
	var l pdictLayout
	if len(data) < 2 || data[0] != tagPDict {
		return l, fmt.Errorf("%w: expected PDICT", ErrCorrupt)
	}
	body := data[1:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 {
		return l, ErrCorrupt
	}
	body = body[sz:]
	if n == 0 {
		return l, nil
	}
	dn, sz := binary.Uvarint(body)
	if sz <= 0 || dn > maxDictEntries {
		return l, ErrCorrupt
	}
	body = body[sz:]
	l.dn, l.dict = int(dn), body
	for range dn {
		_, rest, ok := nextLenPrefixed(body)
		if !ok {
			return l, ErrCorrupt
		}
		body = rest
	}
	l.dictSz = len(l.dict) - len(body)
	if len(body) < 1 {
		return l, ErrCorrupt
	}
	// The encoder writes codes at least one bit wide, so every row costs
	// packed bits and a hostile row count cannot outgrow the block.
	l.w = int(body[0])
	body = body[1:]
	if l.fe, sz = binary.Uvarint(body); sz <= 0 {
		return l, ErrCorrupt
	}
	body = body[sz:]
	if l.ne, sz = binary.Uvarint(body); sz <= 0 {
		return l, ErrCorrupt
	}
	body = body[sz:]
	if l.w < 1 || l.w > 64 || l.fe > n || l.ne > n || !rowsFit(n, l.w, body) {
		return l, ErrCorrupt
	}
	l.n = int(n)
	need := (l.n*l.w + 7) / 8
	l.packed, l.exc = body[:need], body[need:]
	return l, nil
}

// nextLenPrefixed splits the first length-prefixed value off b.
func nextLenPrefixed(b []byte) (v, rest []byte, ok bool) {
	l, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < l {
		return nil, nil, false
	}
	return b[sz : sz+int(l)], b[sz+int(l):], true
}

// EncodeStrings picks between PDICT and raw+LZ for a string column chunk,
// whichever is smaller — mirroring VectorH, which dictionary-compresses
// repetitive strings and falls back to LZ4 for the rest. It copies vals into
// a StrCol first (bench and tests only).
func EncodeStrings(vals []string) []byte {
	var e Encoder
	c := StrColOf(vals)
	return e.AppendStrings(nil, &c)
}

// AppendStrings appends the smaller of the PDICT and raw+LZ encodings of
// vals (PDICT on a tie) to out. PDICT's size is computed exactly before
// either body is built, and the LZ pass gives up as soon as its output can
// no longer come in under it — so a low-cardinality column never finishes
// an LZ pass and a high-cardinality one never packs a dictionary block.
func (e *Encoder) AppendStrings(out []byte, vals *StrCol) []byte {
	n := vals.Len()
	if n == 0 {
		return append(out, tagPDict, 0)
	}
	dictSize, rawLen := e.planDict(vals)
	hdr := 1 + uvarintLen(uint64(n))
	e.raw = slices.Grow(e.raw[:0], rawLen)
	for i := range n {
		e.raw = appendLenPrefixed(e.raw, vals.At(i))
	}
	var ok bool
	if e.lz, ok = lzAppend(e.lz[:0], e.raw, dictSize-hdr); !ok {
		return e.emitDict(out, vals)
	}
	out = binary.AppendUvarint(append(out, tagRawString), uint64(n))
	return append(out, e.lz...)
}

// DecodeStringsScratch decodes either string scheme into a new column; the
// scratch lends the raw+LZ decoder its staging buffer. A raw+LZ block costs
// two allocations, the column's arena and offsets, whatever its value count;
// a PDICT block is opened and materialized (PDictOpen, Materialize).
func DecodeStringsScratch(data []byte, s *Scratch) (StrCol, error) {
	if len(data) == 0 {
		return StrCol{}, ErrCorrupt
	}
	switch data[0] {
	case tagPDict:
		b, err := PDictOpen(data)
		if err != nil {
			return StrCol{}, err
		}
		return b.Materialize()
	case tagRawString:
		n, sz := binary.Uvarint(data[1:])
		if sz <= 0 {
			return StrCol{}, ErrCorrupt
		}
		var raw []byte
		if s != nil {
			raw = s.raw
		}
		raw, err := lzDecompress(raw, data[1+sz:])
		if err != nil {
			return StrCol{}, err
		}
		if s != nil {
			s.raw = raw
		}
		c, _, err := DecodeLenPrefixed(raw, n)
		return c, err
	default:
		return StrCol{}, fmt.Errorf("%w: unknown string scheme %d", ErrCorrupt, data[0])
	}
}
