package hadoopfmt

import (
	"fmt"
	"math/rand"
	"testing"

	"vectorh/internal/hdfs"
	"vectorh/internal/vector"
)

var schema = vector.Schema{
	{Name: "k", Type: vector.TInt64},
	{Name: "qty", Type: vector.TInt32},
	{Name: "price", Type: vector.TFloat64},
	{Name: "flag", Type: vector.TString},
}

func testFS() *hdfs.Cluster {
	return hdfs.NewCluster([]string{"n1", "n2", "n3"}, hdfs.Config{BlockSize: 1 << 16, Replication: 2})
}

func writeFile(t *testing.T, fs *hdfs.Cluster, path string, kind Kind, rows, rgRows int) {
	t.Helper()
	w, err := NewWriter(fs, path, "n1", schema, Options{Kind: kind, RowGroupRows: rgRows})
	if err != nil {
		t.Fatal(err)
	}
	flags := []string{"A", "N", "R"}
	for off := 0; off < rows; off += 512 {
		n := rows - off
		if n > 512 {
			n = 512
		}
		b := vector.NewBatchForSchema(schema, n)
		for i := 0; i < n; i++ {
			row := off + i
			b.AppendRow(int64(row), int32(row%7), float64(row)/3, flags[row%3])
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, it *RowIter) [][]any {
	t.Helper()
	var out [][]any
	for {
		row, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			return out
		}
		cp := make([]any, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
}

func TestRoundTripBothKinds(t *testing.T) {
	for _, kind := range []Kind{Parquet, ORC} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := testFS()
			writeFile(t, fs, "/f", kind, 5000, 1000)
			r, err := Open(fs, "/f", "n1")
			if err != nil {
				t.Fatal(err)
			}
			if r.Rows() != 5000 || r.Kind() != kind {
				t.Fatalf("rows=%d kind=%v", r.Rows(), r.Kind())
			}
			it, err := r.Scan([]string{"k", "qty", "price", "flag"}, nil, SkipCPU)
			if err != nil {
				t.Fatal(err)
			}
			rows := readAll(t, it)
			if len(rows) != 5000 {
				t.Fatalf("read %d rows", len(rows))
			}
			for i, row := range rows {
				if row[0].(int64) != int64(i) || row[1].(int32) != int32(i%7) ||
					row[2].(float64) != float64(i)/3 || row[3].(string) != []string{"A", "N", "R"}[i%3] {
					t.Fatalf("row %d = %v", i, row)
				}
			}
		})
	}
}

func TestPredicateFiltering(t *testing.T) {
	fs := testFS()
	writeFile(t, fs, "/f", ORC, 4000, 500)
	r, _ := Open(fs, "/f", "n1")
	it, err := r.Scan([]string{"k"}, &RangePred{Col: "k", Lo: 100, Hi: 199}, SkipIO)
	if err != nil {
		t.Fatal(err)
	}
	rows := readAll(t, it)
	if len(rows) != 100 {
		t.Fatalf("filtered rows = %d, want 100", len(rows))
	}
}

func TestORCSkipIOReadsLess(t *testing.T) {
	fs := testFS()
	writeFile(t, fs, "/f", ORC, 20000, 1000)
	read := func(mode SkipMode) int64 {
		fs.ResetStats()
		r, _ := Open(fs, "/f", "n1")
		it, err := r.Scan([]string{"k"}, &RangePred{Col: "k", Lo: 0, Hi: 999}, mode)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, it)
		s := fs.Stats()
		return s.LocalBytesRead + s.RemoteBytesRead
	}
	ioSkip := read(SkipIO)
	cpuSkip := read(SkipCPU)
	if !(ioSkip < cpuSkip) {
		t.Fatalf("SkipIO (%d) should read less than SkipCPU (%d)", ioSkip, cpuSkip)
	}
}

func TestParquetCannotSkipIO(t *testing.T) {
	fs := testFS()
	writeFile(t, fs, "/f", Parquet, 20000, 1000)
	r, _ := Open(fs, "/f", "n1")
	// Requesting SkipIO degrades to SkipCPU on Parquet-like files.
	fs.ResetStats()
	it, err := r.Scan([]string{"k"}, &RangePred{Col: "k", Lo: 0, Hi: 999}, SkipIO)
	if err != nil {
		t.Fatal(err)
	}
	rows := readAll(t, it)
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}
	s := fs.Stats()
	colBytes, _ := r.ColumnBytes("k")
	if got := s.LocalBytesRead + s.RemoteBytesRead; got < colBytes {
		t.Fatalf("parquet-like read %d bytes, below the full column size %d; stats should force chunk reads", got, colBytes)
	}
}

func TestORCVarintsSmallerThanParquetFixed(t *testing.T) {
	// "Parquet could be close were it not for its inefficient handling of
	// 64-bits integers": int64 column sizes must rank ORC < Parquet.
	fsP, fsO := testFS(), testFS()
	writeFile(t, fsP, "/f", Parquet, 30000, 4096)
	writeFile(t, fsO, "/f", ORC, 30000, 4096)
	rp, _ := Open(fsP, "/f", "n1")
	ro, _ := Open(fsO, "/f", "n1")
	bp, _ := rp.ColumnBytes("k")
	bo, _ := ro.ColumnBytes("k")
	if bo >= bp {
		t.Fatalf("orc int64 bytes %d should be < parquet %d", bo, bp)
	}
}

func TestScanErrors(t *testing.T) {
	fs := testFS()
	writeFile(t, fs, "/f", ORC, 100, 50)
	r, _ := Open(fs, "/f", "n1")
	if _, err := r.Scan([]string{"ghost"}, nil, SkipCPU); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := r.Scan([]string{"qty"}, &RangePred{Col: "k", Lo: 0, Hi: 1}, SkipCPU); err == nil {
		t.Fatal("predicate column outside projection should fail")
	}
	if _, err := Open(fs, "/missing", "n1"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestOpenRejectsCorruptFooter(t *testing.T) {
	fs := testFS()
	fs.WriteFile("/bad", "n1", []byte{1, 2, 3})
	if _, err := Open(fs, "/bad", "n1"); err == nil {
		t.Fatal("truncated file should fail")
	}
	fs.WriteFile("/bad2", "n1", []byte{'x', 'y', 'z', 'w', 3, 0, 0, 0})
	if _, err := Open(fs, "/bad2", "n1"); err == nil {
		t.Fatal("garbage footer should fail")
	}
}

func TestRowGroupSplitByRowCount(t *testing.T) {
	// The paper's point about thin columns: a constant column still gets
	// one chunk per row group, instead of one big block.
	fs := testFS()
	cs := vector.Schema{{Name: "c", Type: vector.TInt64}}
	w, _ := NewWriter(fs, "/f", "n1", cs, Options{Kind: ORC, RowGroupRows: 100})
	b := vector.NewBatchForSchema(cs, 1000)
	for i := 0; i < 1000; i++ {
		b.AppendRow(int64(7))
	}
	w.Append(b)
	w.Close()
	r, _ := Open(fs, "/f", "n1")
	if got := len(r.meta.RowGroups); got != 10 {
		t.Fatalf("row groups = %d, want 10", got)
	}
}

func TestLargeRandomRoundTrip(t *testing.T) {
	fs := testFS()
	rng := rand.New(rand.NewSource(10))
	w, _ := NewWriter(fs, "/f", "n1", schema, Options{Kind: Parquet, RowGroupRows: 777})
	want := make([][]any, 0, 3000)
	b := vector.NewBatchForSchema(schema, 3000)
	for i := 0; i < 3000; i++ {
		row := []any{rng.Int63n(1 << 40), int32(rng.Intn(100)), rng.Float64(), fmt.Sprintf("s%d", rng.Intn(50))}
		b.AppendRow(row...)
		want = append(want, row)
	}
	w.Append(b)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := Open(fs, "/f", "n1")
	it, _ := r.Scan([]string{"k", "qty", "price", "flag"}, nil, SkipCPU)
	rows := readAll(t, it)
	if len(rows) != 3000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if rows[i][c] != want[i][c] {
				t.Fatalf("row %d col %d: %v != %v", i, c, rows[i][c], want[i][c])
			}
		}
	}
}

// BenchmarkWriterAppendOneBatch appends a whole table as one batch, as the
// Figure 5 experiment does with lineitem: the writer cuts every row group
// off the front of what it buffered, so the cost of a cut must not grow
// with what is left.
func BenchmarkWriterAppendOneBatch(b *testing.B) {
	const rows = 200_000
	cs := vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "comment", Type: vector.TString}}
	batch := vector.NewBatchForSchema(cs, rows)
	for i := 0; i < rows; i++ {
		batch.AppendRow(int64(i), fmt.Sprintf("carefully final deposits %015d", i))
	}
	b.ResetTimer()
	for range b.N {
		w, err := NewWriter(testFS(), "/f", "n1", cs, Options{Kind: ORC, RowGroupRows: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Append(batch); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
