package colstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/hdfs"
	"vectorh/internal/obs"
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

func scanAll(t *testing.T, fs *hdfs.Cluster, meta *PartitionMeta, cols []string) [][]any {
	t.Helper()
	s, err := NewScanner(fs, meta, "node1", cols, nil)
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

// intBound, floatBound and strBound are intervals of each kind expr.Bounds
// derives; hasHi false leaves a string interval open above.
func intBound(lo, hi int64) expr.Bound {
	return expr.Bound{Kind: vector.Int64, IntLo: lo, IntHi: hi}
}

func floatBound(lo, hi float64) expr.Bound {
	return expr.Bound{Kind: vector.Float64, FloatLo: lo, FloatHi: hi}
}

func strBound(lo, hi string, hasHi bool) expr.Bound {
	return expr.Bound{Kind: vector.String, StrLo: lo, StrHi: hi, HasStrHi: hasHi}
}

// scanSkipping scans cols the way a skipping scan does: spans clamped on the
// first column, and a span whose block of it does not admit bd dropped on
// the block's directory entry before anything is decoded. It returns the
// rows of the spans kept and the scanner's counters.
func scanSkipping(t *testing.T, fs *hdfs.Cluster, meta *PartitionMeta, cols []string, bd expr.Bound) ([][]any, obs.ScanIO) {
	t.Helper()
	s, err := NewScanner(fs, meta, "node1", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for {
		start, n, err := s.NextSpan([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return rows, s.Stats()
		}
		b := s.SpanMeta(0, start)
		if b == nil || b.Rows == 0 || start < b.RowStart || start+int64(n) > b.RowStart+int64(b.Rows) {
			t.Fatalf("span [%d,%d) is not inside one block of %s: %+v", start, start+int64(n), cols[0], b)
		}
		if !b.Admits(bd) {
			continue
		}
		batch := &vector.Batch{Vecs: make([]*vector.Vec, len(cols))}
		for i := range cols {
			if batch.Vecs[i], err = s.ColVec(i, start, n); err != nil {
				t.Fatal(err)
			}
		}
		for i := range n {
			rows = append(rows, batch.Row(i))
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
	rows := scanAll(t, fs, meta, []string{"k", "d", "price", "flag"})
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
	rows := scanAll(t, fs, meta, []string{"k"})
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
	scanAll(t, fs, meta, []string{"k"})
	one := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	fs.ResetStats()
	scanAll(t, fs, meta, []string{"k", "d", "price", "flag"})
	all := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	if one*2 >= all {
		t.Fatalf("projection should read far less: 1 col=%dB, 4 cols=%dB", one, all)
	}
}

func TestMinMaxSkippingReducesIO(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 2048, BlocksPerChunk: 8, MaxRowsPerBlock: 1024})
	writeRows(t, fs, meta, 0, 20000) // column k is sorted 0..19999
	fs.ResetStats()
	rows, _ := scanSkipping(t, fs, meta, []string{"k", "price"}, intBound(0, 999))
	skipped := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	if got := len(rows); got < 1000 || got > 4000 {
		t.Fatalf("rows of kept spans = %d, want ~1000 (block granularity)", got)
	}
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
	scanAll(t, fs, meta, []string{"k", "price"})
	full := fs.Stats().LocalBytesRead + fs.Stats().RemoteBytesRead
	if skipped*3 >= full {
		t.Fatalf("skipping should save >3x IO: skipped=%dB full=%dB", skipped, full)
	}
}

// TestAdmittingBoundKeepsEveryBlock: a bound every block summary admits
// drops no span, so a skipping scan returns every row in order, decodes as
// many blocks as a plain scan and reports nothing skipped.
func TestAdmittingBoundKeepsEveryBlock(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 2048, BlocksPerChunk: 8})
	writeRows(t, fs, meta, 0, 10000)
	rows, st := scanSkipping(t, fs, meta, []string{"k"}, intBound(0, 9999999))
	if len(rows) != 10000 {
		t.Fatalf("scanned %d rows, want 10000", len(rows))
	}
	for i, r := range rows {
		if r[0] != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	c, err := meta.Col("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) < 2 || st.BlocksRead != int64(len(c.Blocks)) || st.BytesSkipped != 0 {
		t.Fatalf("read %d of %d blocks, skipped %d bytes; want every block of several, none skipped",
			st.BlocksRead, len(c.Blocks), st.BytesSkipped)
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
	rows := scanAll(t, fs, back, []string{"k"})
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
	scanAll(t, fs, meta, []string{"k", "price"})
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
	rows, _ := scanSkipping(t, fs, meta, []string{"price"}, floatBound(1500, 3000))
	if n := len(rows); n == 0 || n >= 5000 {
		t.Fatalf("float MinMax should narrow the scan: %d of 5000 rows kept", n)
	}
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
	rows, st := scanSkipping(t, fs, meta, []string{"flag"}, strBound("S", "Z", true))
	if len(rows) != 0 || st.BlocksRead != 0 {
		t.Fatalf("string range beyond the data should skip all blocks, got %d rows from %d blocks", len(rows), st.BlocksRead)
	}
}

// TestBlockAdmits holds the MinMax test to each kind's summary: a block
// admits a bound when its [min, max] meets the closed interval, an unbounded
// string side never rejects, and a block whose summary was never computed —
// or a nil one — admits every bound, whatever its zero-valued extremes say.
// An interval that holds no value is admitted by no block, with a summary
// that meets both its ends or without one.
func TestBlockAdmits(t *testing.T) {
	ints := &BlockMeta{HasMinMax: true, NumMin: 10, NumMax: 20}
	floats := &BlockMeta{HasMinMax: true, FloatMin: 1.5, FloatMax: 3}
	strs := &BlockMeta{HasMinMax: true, StrMin: "B", StrMax: "M"}
	absent := &BlockMeta{Rows: 100}
	cases := []struct {
		name string
		bd   expr.Bound
		b    *BlockMeta
		want bool
	}{
		{"int inside", intBound(12, 15), ints, true},
		{"int touches max", intBound(20, 30), ints, true},
		{"int below", intBound(0, 9), ints, false},
		{"int above", intBound(21, 30), ints, false},
		{"float touches min", floatBound(0, 1.5), floats, true},
		{"float inside", floatBound(2, 2.5), floats, true},
		{"float below", floatBound(0, 1.4), floats, false},
		{"float above", floatBound(3.1, 9), floats, false},
		{"string inside", strBound("C", "D", true), strs, true},
		{"string touches max", strBound("M", "Z", true), strs, true},
		{"string above", strBound("N", "Z", true), strs, false},
		{"string below", strBound("", "A", true), strs, false},
		{"string open above", strBound("L", "", false), strs, true},
		{"string open below", strBound("", "", false), strs, true},
		{"absent int", intBound(1000, 2000), absent, true},
		{"absent float", floatBound(1000, 2000), absent, true},
		{"absent string", strBound("S", "Z", true), absent, true},
		{"nil int", intBound(1000, 2000), nil, true},
		{"empty int", intBound(15, 12), ints, false},
		{"empty float", floatBound(2.5, 2), floats, false},
		{"empty string", strBound("D", "C", true), strs, false},
		{"absent empty int", intBound(15, 12), absent, false},
		{"absent empty float", floatBound(2.5, 2), absent, false},
		{"absent empty string", strBound("D", "C", true), absent, false},
		{"nil empty int", intBound(15, 12), nil, false},
	}
	for _, c := range cases {
		if got := c.b.Admits(c.bd); got != c.want {
			t.Errorf("%s: admits = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAbsentMinMaxAlwaysQualifies is the regression test for silently
// skipping blocks whose MinMax summary was never computed: legacy metadata
// (no mm flag) has zero-valued extremes that look like a real [0,0]
// summary, and a predicate like k in [lo,hi] with lo > 0 used to skip such
// blocks — dropping their rows. It also plants a zero-row tail block in the
// directory, which must neither become a span nor break the scan.
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
	rows, _ := scanSkipping(t, fs, meta, []string{"k"}, intBound(1000, 2000))
	if len(rows) != 3000 {
		t.Fatalf("absent summaries must keep every (non-empty) block: %d of 3000 rows", len(rows))
	}
	for i, r := range rows {
		if r[0] != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	s, err := NewScanner(fs, meta, "node1", []string{"k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.SpanMeta(0, 3000); b != nil {
		t.Fatalf("the zero-row tail block covers row 3000: %+v", b)
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

// TestSpanMetaReadsNoPayload holds SpanMeta to the block directory: the
// entry it returns is the block covering the row, its summary covers every
// value of the block in each kind, a block without a summary is returned as
// it is, a row no block covers gets nil, and no call reads or decodes a
// payload.
func TestSpanMetaReadsNoPayload(t *testing.T) {
	fs := testFS()
	meta := NewPartitionMeta("t", 0, testSchema, Format{BlockSize: 4096, BlocksPerChunk: 8, MaxRowsPerBlock: 300})
	writeRows(t, fs, meta, 0, 4000)
	cols := []string{"k", "d", "price", "flag"}
	fs.ResetStats()
	s, err := NewScanner(fs, meta, "node1", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	inside := []func(b *BlockMeta, row int64) bool{
		func(b *BlockMeta, row int64) bool { return b.NumMin <= row && row <= b.NumMax },                          // k
		func(b *BlockMeta, row int64) bool { return b.NumMin <= row/10 && row/10 <= b.NumMax },                    // d
		func(b *BlockMeta, row int64) bool { v := float64(row) * 1.5; return b.FloatMin <= v && v <= b.FloatMax }, // price
		func(b *BlockMeta, row int64) bool {
			v := []string{"A", "N", "R"}[row%3]
			return b.StrMin <= v && v <= b.StrMax
		}, // flag
	}
	for row := int64(0); row < 4000; row += 37 {
		for i, in := range inside {
			b := s.SpanMeta(i, row)
			want, err := s.blockFor(i, row)
			if err != nil {
				t.Fatal(err)
			}
			if b != want {
				t.Fatalf("%s row %d: entry %+v, directory %+v", cols[i], row, b, want)
			}
			if !b.HasMinMax || row < b.RowStart || row >= b.RowStart+int64(b.Rows) {
				t.Fatalf("%s row %d: entry %+v does not cover it with a summary", cols[i], row, b)
			}
			for r := b.RowStart; r < b.RowStart+int64(b.Rows); r++ {
				if !in(b, r) {
					t.Fatalf("%s row %d: value outside the summary %+v", cols[i], r, b)
				}
			}
		}
	}
	b := s.SpanMeta(0, 0)
	b.HasMinMax = false
	if got := s.SpanMeta(0, 0); got != b || got.HasMinMax {
		t.Fatalf("a block without a summary: %+v", got)
	}
	for i := range cols {
		if b := s.SpanMeta(i, 4000); b != nil {
			t.Fatalf("%s: an entry for a row past the partition: %+v", cols[i], b)
		}
	}
	if st := fs.Stats(); st.LocalBytesRead+st.RemoteBytesRead != 0 {
		t.Fatalf("SpanMeta read hdfs: %+v", st)
	}
	if st := s.Stats(); st.BlocksRead != 0 || st.BytesDecoded != 0 {
		t.Fatalf("SpanMeta decoded a block: %+v", st)
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
