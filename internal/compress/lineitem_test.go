package compress_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/tpch"
)

// lineitemColumns generates a lineitem table (SF 0.01, seed 301) and
// returns the named string columns, in generation order. Nothing keeps the
// table: a benchmark that drops the columns measures on a small heap.
func lineitemColumns(names ...string) [][]string {
	b := tpch.Generate(0.01, 301).Tables["lineitem"]
	cols := make([][]string, len(names))
	for c, name := range names {
		v := b.Col(tpch.LineitemSchema.Index(name))
		cols[c] = make([]string, b.Len())
		for i := range cols[c] {
			cols[c][i] = v.StrAt(i)
		}
	}
	return cols
}

// BenchmarkDecodeScratchThroughput decodes the first 8192-row chunk of
// lineitem string columns as colstore writes them — l_comment's raw+LZ into
// strings with the staging buffers reused, as the scanner does, and the
// small-domain flags' PDICT into the codes a scan hands to execution — and
// fixed-width PFOR blocks, in MB/s of decoded bytes (a string column's arena
// and offsets, 4 bytes a code, 8 an integer). Each case runs beside its
// floor: "<case>-copy" copies the same number of bytes.
func BenchmarkDecodeScratchThroughput(b *testing.B) {
	names := []string{"l_comment", "l_returnflag", "l_linestatus"}
	blocks := make([][]byte, len(names)) // the table itself is not kept
	for c, vals := range lineitemColumns(names...) {
		blocks[c] = compress.EncodeStrings(vals[:8192])
	}
	for i, enc := range blocks {
		if compress.IsPDict(enc) {
			b.Run(names[i], func(b *testing.B) {
				b.SetBytes(4 * 8192)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pd, err := compress.PDictOpen(enc)
					if err == nil {
						_, err = pd.Codes()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
			benchCopyFloor(b, names[i], 4*8192)
			continue
		}
		var s compress.Scratch
		dec, err := compress.DecodeStringsScratch(enc, &s) // grows the scratch
		if err != nil {
			b.Fatal(err)
		}
		size := dec.ValueBytes() + 4*(dec.Len()+1)
		b.Run(names[i], func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compress.DecodeStringsScratch(enc, &s); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchCopyFloor(b, names[i], size)
	}
	for _, w := range []int{3, 7, 12, 20} {
		rng := rand.New(rand.NewSource(int64(w)))
		vals := make([]int64, 8192)
		for i := range vals {
			vals[i] = rng.Int63n(1 << w)
		}
		enc := compress.PFOREncode(vals)
		name := fmt.Sprintf("pfor-w%d", w)
		b.Run(name, func(b *testing.B) {
			dst := make([]int64, 0, len(vals))
			b.ResetTimer()
			b.SetBytes(int64(8 * len(vals)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compress.PFORDecode(enc, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchCopyFloor(b, name, 8*len(vals))
	}
}

// benchCopyFloor runs "<name>-copy": one copy of size bytes, the least a
// decode that writes that many bytes can cost.
func benchCopyFloor(b *testing.B, name string, size int) {
	src, dst := make([]byte, size), make([]byte, size)
	b.Run(name+"-copy", func(b *testing.B) {
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
}
