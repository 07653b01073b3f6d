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

// rawLZChunk returns the raw+LZ encoding of the first 8192-row chunk of a
// column that encodes as raw+LZ, as colstore writes it.
func rawLZChunk(tb testing.TB, vals []string) []byte {
	for lo := 0; lo+8192 <= len(vals); lo += 8192 {
		if enc := compress.EncodeStrings(vals[lo : lo+8192]); !compress.IsPDict(enc) {
			return enc
		}
	}
	tb.Fatal("no 8192-row chunk encodes as raw+LZ")
	return nil
}

// BenchmarkDecodeScratchThroughput decodes real raw+LZ lineitem chunks and
// fixed-width PFOR blocks with the staging buffers reused, as the scanner
// does, in MB/s of decoded bytes (a string column's arena and offsets, 8
// bytes an integer). Each case runs beside its floor: "<case>-copy" copies
// the same number of bytes.
func BenchmarkDecodeScratchThroughput(b *testing.B) {
	names := []string{"l_comment", "l_returnflag", "l_linestatus"}
	blocks := make([][]byte, len(names)) // the table itself is not kept
	for c, vals := range lineitemColumns(names...) {
		blocks[c] = rawLZChunk(b, vals)
	}
	for i, enc := range blocks {
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
