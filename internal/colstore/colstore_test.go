package colstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/hdfs"
	"vectorh/internal/vector"
)

func testFS() *hdfs.Cluster {
	return hdfs.NewCluster([]string{"node1", "node2", "node3"}, hdfs.Config{BlockSize: 1 << 16, Replication: 2})
}

var testSchema = vector.Schema{
	{Name: "k", Type: vector.TInt64},
	{Name: "d", Type: vector.TDate},
	{Name: "price", Type: vector.TFloat64},
	{Name: "flag", Type: vector.TString},
}

// writeRows appends n deterministic rows and returns the generators used.
// Superseded files are deleted eagerly, as a caller without concurrent
// readers would.
func writeRows(t *testing.T, fs *hdfs.Cluster, meta *PartitionMeta, start, n int) {
	t.Helper()
	a, err := NewAppender(fs, meta, "node1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, f := range a.Superseded() {
			if fs.Exists(f) {
				if err := fs.Delete(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}()
	flags := []string{"A", "N", "R"}
	for off := 0; off < n; off += vector.MaxSize {
		cnt := n - off
		if cnt > vector.MaxSize {
			cnt = vector.MaxSize
		}
		b := vector.NewBatchForSchema(testSchema, cnt)
		for i := 0; i < cnt; i++ {
			row := start + off + i
			b.AppendRow(int64(row), int32(row/10), float64(row)*1.5, flags[row%3])
		}
		if err := a.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanAll(t *testing.T, fs *hdfs.Cluster, meta *PartitionMeta, cols []string, ranges []RowRange) [][]any {
	t.Helper()
	s, err := NewScanner(fs, meta, "node1", cols, ranges)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for {
		b, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 5000)
	if meta.Rows != 5000 {
		t.Fatalf("Rows = %d", meta.Rows)
	}
	rows := scanAll(t, fs, meta, []string{"k", "d", "price", "flag"}, nil)
	if len(rows) != 5000 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].(int64) != int64(i) || r[1].(int32) != int32(i/10) ||
			r[2].(float64) != float64(i)*1.5 || r[3].(string) != []string{"A", "N", "R"}[i%3] {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestMultipleAppendsMergePartialBlocks(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 700)
	firstGen := meta.PartialGen
	if firstGen < 0 {
		t.Fatal("first append should leave a partial chunk")
	}
	writeRows(t, fs, meta, 700, 700)
	if meta.PartialGen == firstGen {
		t.Fatal("second append should supersede the partial chunk generation")
	}
	if fs.Exists(meta.PartialPath(firstGen)) {
		t.Fatal("old partial chunk file should be deleted")
	}
	rows := scanAll(t, fs, meta, []string{"k"}, nil)
	if len(rows) != 1400 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].(int64) != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestProjectionReadsOnlyRequestedColumns(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 3000)
	fs.ResetStats()
	scanAll(t, fs, meta, []string{"k"}, nil)
	one := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	fs.ResetStats()
	scanAll(t, fs, meta, []string{"k", "d", "price", "flag"}, nil)
	all := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	if one*2 >= all {
		t.Fatalf("projection should read far less: 1 col=%dB, 4 cols=%dB", one, all)
	}
}

func TestMinMaxSkippingReducesIO(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 2048, BlocksPerChunk: 8, MaxRowsPerBlock: 1024})
	writeRows(t, fs, meta, 0, 20000) // column k is sorted 0..19999
	ranges, err := meta.QualifyingRanges("k", Int64RangePred(0, 999))
	if err != nil {
		t.Fatal(err)
	}
	if got := RangesRows(ranges); got < 1000 || got > 4000 {
		t.Fatalf("qualifying rows = %d, want ~1000 (block granularity)", got)
	}
	fs.ResetStats()
	rows := scanAll(t, fs, meta, []string{"k", "price"}, ranges)
	skipped := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	found := 0
	for _, r := range rows {
		if r[0].(int64) <= 999 {
			found++
		}
	}
	if found != 1000 {
		t.Fatalf("found %d qualifying rows", found)
	}
	fs.ResetStats()
	scanAll(t, fs, meta, []string{"k", "price"}, nil)
	full := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	if skipped*3 >= full {
		t.Fatalf("skipping should save >3x IO: skipped=%dB full=%dB", skipped, full)
	}
}

func TestQualifyingRangesMergesAdjacentBlocks(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 2048, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 10000)
	ranges, err := meta.QualifyingRanges("k", Int64RangePred(0, 9999999))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 1 || ranges[0] != (RowRange{0, 10000}) {
		t.Fatalf("ranges = %v, want one merged full range", ranges)
	}
}

func TestIntersectRanges(t *testing.T) {
	a := []RowRange{{0, 10}, {20, 30}}
	b := []RowRange{{5, 25}}
	got := IntersectRanges(a, b)
	want := []RowRange{{5, 10}, {20, 25}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("intersect = %v", got)
	}
	if out := IntersectRanges(a, nil); out != nil {
		t.Fatalf("intersect with empty = %v", out)
	}
}

func TestUnionRanges(t *testing.T) {
	a := []RowRange{{0, 10}, {20, 30}, {50, 60}}
	b := []RowRange{{5, 12}, {12, 13}, {30, 31}, {40, 41}, {70, 71}}
	got := UnionRanges(a, b)
	want := []RowRange{{0, 13}, {20, 31}, {40, 41}, {50, 60}, {70, 71}}
	if !slices.Equal(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if got := UnionRanges(nil, b[:2]); !slices.Equal(got, []RowRange{{5, 13}}) {
		t.Fatalf("union with empty = %v", got)
	}
	if got := UnionRanges(a, a); !slices.Equal(got, a) {
		t.Fatalf("union with itself = %v", got)
	}
}

func TestMetaMarshalRoundTrip(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 3, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 2500)
	data, err := meta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPartitionMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != meta.Rows || len(back.Cols) != len(meta.Cols) || back.PartialGen != meta.PartialGen {
		t.Fatal("meta round trip mismatch")
	}
	// And the reloaded meta must drive a correct scan.
	rows := scanAll(t, fs, back, []string{"k"}, nil)
	if len(rows) != 2500 {
		t.Fatalf("scan with reloaded meta: %d rows", len(rows))
	}
	if _, err := UnmarshalPartitionMeta([]byte("{")); err == nil {
		t.Fatal("bad json should fail")
	}
}

func TestScannerUnknownColumn(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 100)
	if _, err := NewScanner(fs, meta, "node1", []string{"nope"}, nil); err == nil {
		t.Fatal("unknown column should fail")
	}
}

func TestEmptyPartitionScan(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	s, err := NewScanner(fs, meta, "node1", []string{"k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Next()
	if err != nil || b != nil {
		t.Fatalf("empty scan: %v %v", b, err)
	}
}

func TestThinColumnOccupiesFewBlocks(t *testing.T) {
	// The Figure-1 design point: a highly compressible column packs into
	// very few full blocks rather than being split by row count.
	fs := testFS()
	schema := vector.Schema{{Name: "wide", Type: vector.TString}, {Name: "thin", Type: vector.TInt64}}
	meta := NewPartitionMeta("t", 0, schema, Format{BlockSize: 4096, BlocksPerChunk: 64})
	a, err := NewAppender(fs, meta, "node1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for off := 0; off < 40000; off += vector.MaxSize {
		b := vector.NewBatchForSchema(schema, vector.MaxSize)
		for i := 0; i < vector.MaxSize; i++ {
			b.AppendRow(fmt.Sprintf("wide-unique-string-%d-%d", off+i, rng.Int()), int64(1))
		}
		if err := a.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	wide, _ := meta.Col("wide")
	thin, _ := meta.Col("thin")
	if len(thin.Blocks)*4 > len(wide.Blocks) {
		t.Fatalf("thin column has %d blocks vs wide %d; expected far fewer", len(thin.Blocks), len(wide.Blocks))
	}
}

func TestChunkFileRotation(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 1024, BlocksPerChunk: 4})
	writeRows(t, fs, meta, 0, 30000)
	if len(meta.Chunks) < 2 {
		t.Fatalf("expected multiple chunk files, got %d", len(meta.Chunks))
	}
	for _, c := range meta.Chunks {
		if c.Slots > 4 {
			t.Fatalf("chunk %d has %d slots, cap 4", c.ID, c.Slots)
		}
		if !fs.Exists(meta.ChunkPath(c.ID)) {
			t.Fatalf("chunk file %d missing", c.ID)
		}
	}
}

func TestDeleteFiles(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 2000)
	if len(meta.Files()) == 0 {
		t.Fatal("no files recorded")
	}
	if err := meta.DeleteFiles(fs); err != nil {
		t.Fatal(err)
	}
	for _, f := range meta.Files() {
		if fs.Exists(f) {
			t.Fatalf("file %s survived DeleteFiles", f)
		}
	}
}

func TestAppenderWritesLandOnWriterNode(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 3000)
	for _, f := range meta.Files() {
		locs, err := fs.BlockLocations(f)
		if err != nil {
			t.Fatal(err)
		}
		for bi, l := range locs {
			if l[0] != "node1" {
				t.Fatalf("file %s block %d first replica on %s, want writer node1", f, bi, l[0])
			}
		}
	}
	// Therefore a scan from node1 is fully short-circuit.
	fs.ResetStats()
	scanAll(t, fs, meta, []string{"k", "price"}, nil)
	if s := fs.Stats(); s.RemoteBytesRead != 0 || s.LocalBytesRead == 0 {
		t.Fatalf("scan from writer should be fully local: %+v", s)
	}
}

// TestPerKindMinMaxRecordedAndSkipping verifies every column kind gets a
// usable MinMax summary at append time — float64 and string summaries are
// consulted for skipping, not just the int64 ones.
func TestPerKindMinMaxRecordedAndSkipping(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 5000)
	for _, col := range []string{"k", "d", "price", "flag"} {
		c, err := meta.Col(col)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range c.Blocks {
			if !c.Blocks[bi].HasMinMax {
				t.Fatalf("column %s block %d has no MinMax summary", col, bi)
			}
		}
	}
	// Float skipping: price = row*1.5, so [1500, 3000) covers rows 1000..2000.
	ranges, err := meta.QualifyingRanges("price", Float64RangePred(1500, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if n := RangesRows(ranges); n == 0 || n >= 5000 {
		t.Fatalf("float MinMax should narrow the scan: %d of 5000 rows qualify", n)
	}
	rows := scanAll(t, fs, meta, []string{"price"}, ranges)
	covered := make(map[float64]bool, len(rows))
	for _, r := range rows {
		covered[r[0].(float64)] = true
	}
	for v := 1500.0; v <= 3000.0; v += 1.5 {
		if !covered[v] {
			t.Fatalf("float skipping dropped qualifying value %v", v)
		}
	}
	// String skipping: flag cycles A/N/R in every block, so ["A","A"] can
	// prune nothing — but a range above "R" must prune everything.
	ranges, err = meta.QualifyingRanges("flag", StrRangePred("S", "Z", true, true))
	if err != nil {
		t.Fatal(err)
	}
	if RangesRows(ranges) != 0 {
		t.Fatalf("string range beyond the data should skip all blocks, got %d rows", RangesRows(ranges))
	}
}

// TestAbsentMinMaxAlwaysQualifies is the regression test for silently
// skipping blocks whose MinMax summary was never computed or widened:
// legacy metadata (no mm flag) has zero-valued extremes that look like a
// real [0,0] summary, and a predicate like k in [lo,hi] with lo > 0 used
// to skip such blocks — dropping their rows. It also plants a zero-row
// tail block in the directory, which must neither qualify rows nor break
// the scan.
func TestAbsentMinMaxAlwaysQualifies(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 3000)
	// Simulate legacy metadata: strip every summary of column k.
	c, err := meta.Col("k")
	if err != nil {
		t.Fatal(err)
	}
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		b.HasMinMax = false
		b.NumMin, b.NumMax = 0, 0
	}
	// Zero-row tail block (e.g. from a hand-built or truncated directory).
	c.Blocks = append(c.Blocks, BlockMeta{Chunk: -1, Slot: 0, RowStart: 3000, Rows: 0})
	ranges, err := meta.QualifyingRanges("k", Int64RangePred(1000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if n := RangesRows(ranges); n != 3000 {
		t.Fatalf("absent summaries must qualify every (non-empty) block: %d of 3000 rows", n)
	}
	rows := scanAll(t, fs, meta, []string{"k"}, ranges)
	if len(rows) != 3000 {
		t.Fatalf("scan over absent-summary ranges returned %d rows, want 3000", len(rows))
	}
}

// TestScannerSpanAPI exercises the late-materialization primitives: spans
// clamped on a lead column, a second column decoded for the same span, and
// the IO counters that prove untouched columns stay untouched.
func TestScannerSpanAPI(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 4000)
	s, err := NewScanner(fs, meta, "node1", []string{"k", "price", "flag"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var prices []float64
	for {
		start, n, err := s.NextSpan([]int{0}) // clamp on k only
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		kv, err := s.ColVec(0, start, n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, kv.Int64s()...)
		pv, err := s.ColVec(1, start, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pv.Float64s() {
			if want := float64(start+int64(i)) * 1.5; p != want {
				t.Fatalf("price of row %d = %v, want %v", start+int64(i), p, want)
			}
		}
		prices = append(prices, pv.Float64s()...)
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("span scan row %d = %d", i, k)
		}
	}
	if len(prices) != len(got) {
		t.Fatalf("%d prices for %d rows", len(prices), len(got))
	}
	// The flag column (slot 2) was never requested: the stats must show
	// fewer blocks than a full three-column scan would read.
	st := s.Stats()
	if st.BlocksRead == 0 || st.BytesDecoded == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	full, err := NewScanner(fs, meta, "node1", []string{"k", "price", "flag"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, _, err := full.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
	if full.Stats().BlocksRead <= st.BlocksRead {
		t.Fatalf("never-touched columns must not be decoded: subset=%d blocks, full=%d blocks",
			st.BlocksRead, full.Stats().BlocksRead)
	}

}

// TestSpanValueBoundsReadsNoPayload holds SpanValueBounds to the block's
// MinMax summary: the bounds cover every value of the block, a block
// without a summary or a non-integer slot gives ok=false, and no call reads
// or decodes a payload.
func TestSpanValueBoundsReadsNoPayload(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8, MaxRowsPerBlock: 300})
	writeRows(t, fs, meta, 0, 4000)
	cols := []string{"k", "d", "price", "flag"}
	fs.ResetStats()
	s, err := NewScanner(fs, meta, "node1", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	value := []func(row int64) int64{
		func(row int64) int64 { return row },      // k
		func(row int64) int64 { return row / 10 }, // d
	}
	for row := int64(0); row < 4000; row += 37 {
		for i, v := range value {
			lo, hi, ok := s.SpanValueBounds(i, row)
			if !ok {
				t.Fatalf("%s row %d: no bounds from a summarised block", cols[i], row)
			}
			b, err := s.blockFor(i, row)
			if err != nil {
				t.Fatal(err)
			}
			if lo != b.NumMin || hi != b.NumMax {
				t.Fatalf("%s row %d: bounds [%d,%d], summary [%d,%d]", cols[i], row, lo, hi, b.NumMin, b.NumMax)
			}
			for r := b.RowStart; r < b.RowStart+int64(b.Rows); r++ {
				if x := v(r); x < lo || x > hi {
					t.Fatalf("%s row %d: value %d outside bounds [%d,%d]", cols[i], r, x, lo, hi)
				}
			}
		}
		for i := 2; i < len(cols); i++ {
			if _, _, ok := s.SpanValueBounds(i, row); ok {
				t.Fatalf("%s: bounds on a non-integer slot", cols[i])
			}
		}
	}
	b, err := s.blockFor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.HasMinMax = false
	if _, _, ok := s.SpanValueBounds(0, 0); ok {
		t.Fatal("bounds from a block without a summary")
	}
	if st := fs.Stats(); st.LocalBytesRead+st.RemoteBytesRead != 0 {
		t.Fatalf("SpanValueBounds read hdfs: %+v", st)
	}
	if st := s.Stats(); st.BlocksRead != 0 || st.BytesDecoded != 0 {
		t.Fatalf("SpanValueBounds decoded a block: %+v", st)
	}
}

// TestDecodeHostileBlocks feeds the block decoder blocks no encoder writes,
// under every column kind: each must fail with an error, never panic. A
// float header claiming 2^61 rows used to wrap the n*8 size check and panic
// in make.
func TestDecodeHostileBlocks(t *testing.T) {
	floatBlock := func(n uint64, body int) []byte {
		b := binary.AppendUvarint([]byte{tagFloatRaw}, n)
		return append(b, make([]byte, body)...)
	}
	blocks := map[string][]byte{
		"float count overflow": floatBlock(1<<61, 8),
		"truncated float body": floatBlock(3, 16),
		"unknown tag":          {0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"empty block":          {},
	}
	for name, blk := range blocks {
		for _, k := range []vector.Kind{vector.Bool, vector.Int32, vector.Int64, vector.Float64, vector.String} {
			if _, err := decodeBlockScan(k, blk, &compress.Scratch{}); err == nil {
				t.Errorf("%s as %v: decoded without an error", name, k)
			}
		}
	}
}
