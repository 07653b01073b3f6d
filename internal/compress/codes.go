package compress

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
)

// This file is the execution-on-compressed-data surface of the package:
// accessors that expose the compressed representation itself — a block's
// scheme, its dictionary and its codes — so the scan and the operators
// above it can run on codes instead of materialized values (§4 of the
// VectorH paper: the schemes are cheap enough to skip decoding entirely
// when execution can run on codes).

// StrDict is a string dictionary handle: code c denotes Values[c], and
// Values is immutable once the handle is shared. A block's (PDictOpen)
// appends the block's exception strings after the stored dictionary
// entries, deduplicated, so its distinct strings and distinct codes are in
// bijection. A hash join's build column is the other kind (exec): code r is
// build row r's value, so values repeat, and equal strings may carry unequal
// codes. Readers of codes therefore map them through Values or their
// hashes, and never take unequal codes for unequal strings.
type StrDict struct {
	Values []string

	hashOnce sync.Once
	hashes   []uint64
}

// Len returns the number of dictionary entries.
func (d *StrDict) Len() int { return len(d.Values) }

// Lookup returns the code of s, or -1 if s is not in the dictionary (and
// therefore does not occur in the block). Linear scan: it runs once per
// pushed literal per block, not per row.
func (d *StrDict) Lookup(s string) int {
	for i, v := range d.Values {
		if v == s {
			return i
		}
	}
	return -1
}

// CodeHashes returns hash(Values[c]) for every code, memoized on the
// dictionary. All callers must pass the same hash function (the engine
// always passes vector.HashString); the first call wins.
func (d *StrDict) CodeHashes(hash func(string) uint64) []uint64 {
	d.hashOnce.Do(func() {
		hs := make([]uint64, len(d.Values))
		for i, v := range d.Values {
			hs[i] = hash(v)
		}
		d.hashes = hs
	})
	return d.hashes
}

// maxDecodeRows caps the row count a decoder will trust from a block
// header. Real blocks hold at most a few thousand values; the cap exists so
// a corrupted varint cannot drive a multi-gigabyte staging allocation. It
// matters specifically for w==0 (constant-run) blocks, whose row count is
// not bounded by any payload bytes.
const maxDecodeRows = 1 << 22

// rowsFit reports whether a claimed row count n at code width w is sane:
// under the allocation cap, and (for w>0) small enough that n*w packed bits
// actually fit in the remaining body. The multiplication is phrased as a
// division so a hostile n cannot wrap the packed-size arithmetic into a
// negative reslice.
func rowsFit(n uint64, w int, body []byte) bool {
	if n > maxDecodeRows {
		return false
	}
	return w <= 0 || n <= uint64(len(body))*8/uint64(w)
}

// Scratch holds decoder-internal buffers that never escape a decode call,
// so a long-lived caller (one colstore.Scanner) can reuse them across
// blocks. Decode *targets* are not reusable — they are served upstream as
// zero-copy vector views — but the raw+LZ decoder's staging bytes are.
type Scratch struct {
	raw []byte // a raw+LZ block's decompressed values
}

// PDictBlock is an opened PDICT block: the dictionary is parsed (including
// exception strings, deduplicated into the dictionary) but the code stream
// is not unpacked. A scan that prunes the block via the dictionary alone —
// the pushed literal is absent, or every entry fails the predicate — never
// touches the packed codes. The block owns its bytes: nothing in it aliases
// the payload it was opened from.
type PDictBlock struct {
	Dict *StrDict

	n       int
	w       int
	packed  []byte
	excPos  []int32
	excCode []uint32

	dictBytes int // encoded bytes of the dictionary + exception values
	codeBytes int // encoded bytes of the packed code section

	codesOnce sync.Once
	codes     []uint32
	codesErr  error
}

// Rows returns the number of values in the block.
func (b *PDictBlock) Rows() int { return b.n }

// DictBytes returns the encoded size of the value sections (dictionary +
// exception strings) parsed by PDictOpen.
func (b *PDictBlock) DictBytes() int { return b.dictBytes }

// CodeBytes returns the encoded size of the packed code stream, the part
// whose decode Codes() can skip.
func (b *PDictBlock) CodeBytes() int { return b.codeBytes }

// IsPDict reports whether an encoded string block uses the PDICT scheme
// (as opposed to raw+LZ) and can therefore surface a code vector.
func IsPDict(data []byte) bool { return len(data) > 0 && data[0] == tagPDict }

// IsPFORDelta reports whether an encoded integer block uses PFOR-DELTA, whose
// values only exist as a running sum over the whole block.
func IsPFORDelta(data []byte) bool { return len(data) > 0 && data[0] == tagPFORDelta }

// PDictOpen parses the dictionary and exception chain of a PDICT block
// without unpacking the code stream: the one parser of the format.
// Exception values become additional dictionary entries (deduplicated), so
// the returned dictionary covers every string in the block and codes are
// canonical. The packed code stream is copied, so data may be reused once
// PDictOpen returns.
func PDictOpen(data []byte) (*PDictBlock, error) {
	l, err := parsePDict(data)
	if err != nil {
		return nil, err
	}
	if l.n == 0 {
		return &PDictBlock{Dict: &StrDict{}}, nil
	}
	// The entries are substrings of one copy of the dictionary section.
	arena := string(l.dict[:l.dictSz])
	vals := make([]string, l.dn, l.dn+4)
	for i, rest := 0, l.dict; i < l.dn; i++ {
		v, r, _ := nextLenPrefixed(rest)
		end := len(l.dict) - len(r)
		vals[i], rest = arena[end-len(v):end], r
	}
	b := &PDictBlock{
		n:         l.n,
		w:         l.w,
		packed:    bytes.Clone(l.packed),
		dictBytes: l.dictSz,
		codeBytes: len(l.packed),
	}
	if l.ne > 0 {
		// Dedup exception strings against the dictionary and each other so
		// every distinct string keeps exactly one code.
		//lint:hotpath block-open setup, sized by the dictionary, not per row
		idx := make(map[string]uint32, len(vals)+int(l.ne))
		for i, v := range vals {
			idx[v] = uint32(i)
		}
		b.excPos = make([]int32, 0, l.ne)
		b.excCode = make([]uint32, 0, l.ne)
		cur, rest := l.fe, l.exc
		for range l.ne {
			v, r, ok := nextLenPrefixed(rest)
			if !ok || cur >= uint64(l.n) {
				return nil, ErrCorrupt
			}
			b.dictBytes += len(rest) - len(r)
			rest = r
			c, ok := idx[string(v)]
			if !ok {
				c = uint32(len(vals))
				vals = append(vals, string(v))
				idx[vals[c]] = c
			}
			b.excPos = append(b.excPos, int32(cur))
			b.excCode = append(b.excCode, c)
			// A link that reaches n or past it, 2^64-1 included, saturates
			// at n+1, where a further exception fails.
			cur += min(unpackOne(l.packed, int(cur), l.w), uint64(l.n)-cur) + 1
		}
	}
	b.Dict = &StrDict{Values: vals}
	return b, nil
}

// Codes unpacks the code stream (memoized on the block; concurrent callers
// share one unpack). Every returned code indexes Dict.Values.
func (b *PDictBlock) Codes() ([]uint32, error) {
	b.codesOnce.Do(func() {
		if b.n == 0 {
			return
		}
		codes := make([]uint32, b.n)
		unpackBits(codes, b.packed, b.w, 0)
		for i, p := range b.excPos {
			codes[p] = b.excCode[i]
		}
		dn := uint32(len(b.Dict.Values))
		for _, c := range codes {
			if c >= dn {
				b.codesErr = fmt.Errorf("%w: dict code out of range", ErrCorrupt)
				return
			}
		}
		b.codes = codes
	})
	return b.codes, b.codesErr
}

// Materialize returns the block's values as a new column, going through
// the code vector: the one value decoder of a PDICT block. The arena is
// sized once, from the values the codes select, before any is copied.
func (b *PDictBlock) Materialize() (StrCol, error) {
	codes, err := b.Codes()
	if err != nil || b.n == 0 {
		return StrCol{}, err
	}
	vals := b.Dict.Values
	total := uint64(0)
	for _, c := range codes {
		total += uint64(len(vals[c]))
	}
	if total > MaxBytes {
		return StrCol{}, fmt.Errorf("%w: %d string bytes in one block", ErrCorrupt, total)
	}
	var sb strings.Builder
	sb.Grow(int(total))
	offs := make([]uint32, 1, b.n+1)
	for _, c := range codes {
		sb.WriteString(vals[c])
		offs = append(offs, uint32(sb.Len()))
	}
	return StrCol{arena: sb.String(), offs: offs}, nil
}
