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
// verbatim as exceptions threaded through the code stream.
func PDictEncode(vals []string) []byte {
	var e Encoder
	if len(vals) == 0 {
		return []byte{tagPDict, 0}
	}
	e.planDict(vals)
	return e.emitDict(nil, vals)
}

// planDict builds the block's dictionary — distinct values by descending
// frequency, ties broken by first occurrence for determinism, capped at
// maxDictEntries — and stages codes and exception chain in e.plain. One map
// lookup per value assigns entry ids; codes follow from the sort
// permutation. It returns the exact size of the PDICT block and the size of
// the length-prefixed raw body the LZ alternative would compress.
func (e *Encoder) planDict(vals []string) (dictSize, rawLen int) {
	n := len(vals)
	if e.index == nil {
		e.index = make(dictIndex, 64)
	}
	clear(e.index)
	e.entries = e.entries[:0]
	e.ids = grow(e.ids, n)
	for i, s := range vals {
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
		dictSize += uvarintLen(uint64(len(vals[pos]))) + len(vals[pos])
	}
	return dictSize, rawLen
}

// emitDict appends the PDICT block planDict staged for vals.
func (e *Encoder) emitDict(out []byte, vals []string) []byte {
	out = binary.AppendUvarint(append(out, tagPDict), uint64(len(vals)))
	out = binary.AppendUvarint(out, uint64(len(e.entries)))
	for _, en := range e.entries {
		out = binary.AppendUvarint(out, uint64(len(en.s)))
		out = append(out, en.s...)
	}
	out = append(out, byte(e.plain.w))
	out = e.plain.appendChain(out, len(vals))
	for _, pos := range e.plain.plan {
		out = binary.AppendUvarint(out, uint64(len(vals[pos])))
		out = append(out, vals[pos]...)
	}
	return out
}

// PDictDecode decompresses a PDictEncode block, appending to dst.
func PDictDecode(data []byte, dst []string) ([]string, error) {
	return PDictDecodeScratch(data, dst, nil)
}

// PDictDecodeScratch is PDictDecode with caller-owned staging buffers.
func PDictDecodeScratch(data []byte, dst []string, s *Scratch) ([]string, error) {
	if len(data) < 2 || data[0] != tagPDict {
		return nil, fmt.Errorf("%w: expected PDICT", ErrCorrupt)
	}
	body := data[1:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	if n == 0 {
		return dst, nil
	}
	dn, sz := binary.Uvarint(body)
	if sz <= 0 || dn > maxDictEntries {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	dict := make([]string, dn)
	for i := range dict {
		l, sz := binary.Uvarint(body)
		if sz <= 0 || uint64(len(body)-sz) < l {
			return nil, ErrCorrupt
		}
		body = body[sz:]
		dict[i] = string(body[:l])
		body = body[l:]
	}
	if len(body) < 1 {
		return nil, ErrCorrupt
	}
	w := int(body[0])
	body = body[1:]
	fe, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	ne, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	body = body[sz:]
	if w > 64 || !rowsFit(n, w, body) {
		return nil, ErrCorrupt
	}
	need := (int(n)*w + 7) / 8
	if len(body) < need {
		return nil, ErrCorrupt
	}
	codes := s.u64(int(n))
	unpackBits(codes, body[:need], int(n), w)
	body = body[need:]

	base := len(dst)
	// Phase 1: inflate dictionary codes. Exception slots hold chain links
	// which may collide with valid indexes; they are overwritten in phase 2.
	for _, c := range codes {
		if c < uint64(len(dict)) {
			dst = append(dst, dict[c])
		} else {
			dst = append(dst, "")
		}
	}
	// Phase 2: hop the chain, patching verbatim values.
	cur := int(fe)
	for i := uint64(0); i < ne; i++ {
		l, sz := binary.Uvarint(body)
		if sz <= 0 || uint64(len(body)-sz) < l {
			return nil, ErrCorrupt
		}
		body = body[sz:]
		if cur >= int(n) {
			return nil, ErrCorrupt
		}
		dst[base+cur] = string(body[:l])
		body = body[l:]
		cur += int(codes[cur]) + 1
	}
	return dst, nil
}

// EncodeStrings picks between PDICT and raw+LZ for a string column chunk,
// whichever is smaller — mirroring VectorH, which dictionary-compresses
// repetitive strings and falls back to LZ4 for the rest.
func EncodeStrings(vals []string) []byte {
	var e Encoder
	return e.AppendStrings(nil, vals)
}

// AppendStrings appends the smaller of the PDICT and raw+LZ encodings of
// vals (PDICT on a tie) to out. PDICT's size is computed exactly before
// either body is built, and the LZ pass gives up as soon as its output can
// no longer come in under it — so a low-cardinality column never finishes
// an LZ pass and a high-cardinality one never packs a dictionary block.
func (e *Encoder) AppendStrings(out []byte, vals []string) []byte {
	if len(vals) == 0 {
		return append(out, tagPDict, 0)
	}
	dictSize, rawLen := e.planDict(vals)
	hdr := 1 + uvarintLen(uint64(len(vals)))
	e.raw = slices.Grow(e.raw[:0], rawLen)
	for _, s := range vals {
		e.raw = binary.AppendUvarint(e.raw, uint64(len(s)))
		e.raw = append(e.raw, s...)
	}
	var ok bool
	if e.lz, ok = lzAppend(e.lz[:0], e.raw, dictSize-hdr); !ok {
		return e.emitDict(out, vals)
	}
	out = binary.AppendUvarint(append(out, tagRawString), uint64(len(vals)))
	return append(out, e.lz...)
}

// DecodeStrings decodes either string scheme, appending to dst.
func DecodeStrings(data []byte, dst []string) ([]string, error) {
	return DecodeStringsScratch(data, dst, nil)
}

// DecodeStringsScratch is DecodeStrings with caller-owned staging buffers.
func DecodeStringsScratch(data []byte, dst []string, s *Scratch) ([]string, error) {
	if len(data) == 0 {
		return nil, ErrCorrupt
	}
	switch data[0] {
	case tagPDict:
		return PDictDecodeScratch(data, dst, s)
	case tagRawString:
		return rawStringDecode(data, dst)
	default:
		return nil, fmt.Errorf("%w: unknown string scheme %d", ErrCorrupt, data[0])
	}
}

func rawStringDecode(data []byte, dst []string) ([]string, error) {
	body := data[1:]
	n, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, ErrCorrupt
	}
	raw, err := LZDecompress(body[sz:])
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(raw)
		if sz <= 0 || uint64(len(raw)-sz) < l {
			return nil, ErrCorrupt
		}
		raw = raw[sz:]
		dst = append(dst, string(raw[:l]))
		raw = raw[l:]
	}
	return dst, nil
}
