package colstore

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"vectorh/internal/vector"
)

var layoutSchema = vector.Schema{
	{Name: "key", Type: vector.TInt64},      // sorted: PFOR-DELTA
	{Name: "wide", Type: vector.TInt64},     // uniform 40-bit: blocks fill by bytes, not rows
	{Name: "day", Type: vector.TDate},       // dense domain
	{Name: "price", Type: vector.TFloat64},  // raw
	{Name: "mode", Type: vector.TString},    // 7 values: PDICT, tiny blocks
	{Name: "comment", Type: vector.TString}, // near-unique, long: raw+LZ, prefix halving
	{Name: "one", Type: vector.TInt64},      // constant: zero-width codes
}

func layoutBatch(rng *rand.Rand, start, n int) *vector.Batch {
	modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	words := []string{"furiously", "carefully", "quickly", "blithely", "slyly", "ideas", "deposits", "accounts"}
	b := vector.NewBatchForSchema(layoutSchema, n)
	for i := 0; i < n; i++ {
		row := start + i
		c := ""
		for w := 0; w < 3+rng.Intn(6); w++ {
			c += words[rng.Intn(len(words))] + " "
		}
		b.AppendRow(int64(1000+row*3), rng.Int63n(1<<40), int32(9000+rng.Intn(2500)),
			float64(row)*0.25, modes[rng.Intn(len(modes))], c, int64(1))
	}
	return b
}

// TestAppenderLayoutGolden replays three append sessions — row-bound and
// byte-bound blocks cut mid-append (the latter found by halving and doubling
// the prefix), a partial block read back and rewritten twice, batches behind
// a selection vector — and holds the
// resulting block directory and file bytes to a digest recorded at c51b274,
// before the appender kept encodings, scratch and running sizes across
// calls. Nothing it writes is allowed to move.
func TestAppenderLayoutGolden(t *testing.T) {
	const golden = "f4923bc6fe3bfbc3efdb1077"
	fs := testFS()
	meta := NewPartitionMeta("t", 0, layoutSchema, Format{BlockSize: 1024, BlocksPerChunk: 8, MaxRowsPerBlock: 512})
	rng := rand.New(rand.NewSource(17))
	row := 0
	for _, session := range []int{3000, 10, 5000} {
		a, err := NewAppender(fs, meta, "node1")
		if err != nil {
			t.Fatal(err)
		}
		for left := session; left > 0; {
			n := min(left, vector.MaxSize)
			b := layoutBatch(rng, row, n)
			if row%2048 == 0 && n > 3 {
				// Every third row is dropped by the selection vector.
				for i := 0; i < n; i++ {
					if i%3 != 2 {
						b.Sel = append(b.Sel, int32(i))
					}
				}
			}
			if err := a.Append(b); err != nil {
				t.Fatal(err)
			}
			row += n
			left -= n
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		for _, f := range a.Superseded() {
			if err := fs.Delete(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := sha256.New()
	m, err := meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(m)
	for _, f := range fs.List("/") {
		data, err := fs.ReadAll(f, "node1")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != golden {
		t.Fatalf("layout digest %s, recorded %s (%d rows, %d chunks)", got, golden, meta.Rows, len(meta.Chunks))
	}
	// The digest pins bytes; the data must still read back.
	rows := scanAll(t, fs, meta, []string{"key", "one"})
	if int64(len(rows)) != meta.Rows {
		t.Fatalf("scan returned %d rows, meta says %d", len(rows), meta.Rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0].(int64) <= rows[i-1][0].(int64) || rows[i][1].(int64) != 1 {
			t.Fatalf("row %d reads back as %v after %v", i, rows[i], rows[i-1])
		}
	}
}

// TestAppenderRunningRawBytes: the per-column raw-size counter flushFull
// steers by must equal a fresh sum over the pending values at every step,
// through cuts, and after a partial block is read back.
func TestAppenderRunningRawBytes(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, layoutSchema, Format{BlockSize: 1024, BlocksPerChunk: 8, MaxRowsPerBlock: 512})
	rng := rand.New(rand.NewSource(3))
	check := func(a *Appender, when string) {
		t.Helper()
		for ci, c := range meta.Cols {
			if want := rawBytesEstimate(c.Type.Kind, a.pend[ci]); a.pendRaw[ci] != want {
				t.Fatalf("%s: column %s running raw bytes %d, pending values sum to %d", when, c.Name, a.pendRaw[ci], want)
			}
		}
	}
	for session := 0; session < 2; session++ {
		a, err := NewAppender(fs, meta, "node1")
		if err != nil {
			t.Fatal(err)
		}
		check(a, "after open")
		for i := 0; i < 5; i++ {
			if err := a.Append(layoutBatch(rng, i*700, 700)); err != nil {
				t.Fatal(err)
			}
			check(a, "after append")
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
