// Package colstore implements VectorH's columnar table storage over HDFS
// (§3 of the paper): fixed-compressed-size blocks (512 KB by default) laid
// out at fixed offsets inside horizontal "block chunk" files of up to 1024
// blocks, a file-per-partition layout where all columns of a partition share
// its chunk files, a compact partial-chunk file absorbing the partially
// filled tail blocks of each append, and per-block MinMax indexes kept
// outside the data files so scans can skip IO entirely.
package colstore

import (
	"encoding/json"
	"fmt"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// Format parameterizes the physical layout.
type Format struct {
	BlockSize       int // compressed bytes per block slot; default 512 KiB
	BlocksPerChunk  int // block slots per chunk file; default 1024
	MaxRowsPerBlock int // tuple cap per block, bounding MinMax granularity; default 64Ki
}

// DefaultFormat matches the paper's defaults.
var DefaultFormat = Format{BlockSize: 512 << 10, BlocksPerChunk: 1024, MaxRowsPerBlock: 64 << 10}

func (f *Format) fill() {
	if f.BlockSize <= 0 {
		f.BlockSize = DefaultFormat.BlockSize
	}
	if f.BlocksPerChunk <= 0 {
		f.BlocksPerChunk = DefaultFormat.BlocksPerChunk
	}
	if f.MaxRowsPerBlock <= 0 {
		f.MaxRowsPerBlock = DefaultFormat.MaxRowsPerBlock
	}
}

// BlockMeta describes one compressed block of one column: its location
// (chunk file and slot), the row range it covers, and its MinMax summary.
type BlockMeta struct {
	Chunk    int   `json:"chunk"`    // chunk file id; -1 = partial chunk
	Slot     int   `json:"slot"`     // slot within the chunk (offset = slot*BlockSize)
	RowStart int64 `json:"rowStart"` // first row covered
	Rows     int   `json:"rows"`     // rows covered
	Bytes    int   `json:"bytes"`    // encoded payload length

	// MinMax summary; the fields used depend on the column kind. HasMinMax
	// records that the summary was actually computed: blocks without it
	// (legacy metadata, zero-row blocks, hand-built directories) admit every
	// bound that holds a value (Admits) — a zero-valued summary is
	// indistinguishable from a real [0,0] one, and skipping on it silently
	// drops rows.
	HasMinMax bool    `json:"mm,omitempty"`
	NumMin    int64   `json:"numMin,omitempty"`
	NumMax    int64   `json:"numMax,omitempty"`
	FloatMin  float64 `json:"floatMin,omitempty"`
	FloatMax  float64 `json:"floatMax,omitempty"`
	StrMin    string  `json:"strMin,omitempty"`
	StrMax    string  `json:"strMax,omitempty"`
}

// ColumnMeta is the per-column block directory.
type ColumnMeta struct {
	Name   string      `json:"name"`
	Type   vector.Type `json:"type"`
	Blocks []BlockMeta `json:"blocks"`
	// RawBytes is the uncompressed size estimate of every value stored in
	// Blocks, accumulated at append time — the numerator of the partition's
	// compression ratio (encoded bytes are the sum of Blocks[i].Bytes).
	RawBytes int64 `json:"rawBytes,omitempty"`
}

// NumRange folds the MinMax summaries of an integer-backed column's blocks
// into one [lo, hi] value range; ok is false when the column is of another
// kind or no block carries a summary.
func (c *ColumnMeta) NumRange() (lo, hi int64, ok bool) {
	if c.Type.Kind != vector.Int32 && c.Type.Kind != vector.Int64 {
		return 0, 0, false // NumMin/NumMax only summarize integer kinds
	}
	for _, b := range c.Blocks {
		if !b.HasMinMax {
			continue
		}
		if !ok || b.NumMin < lo {
			lo = b.NumMin
		}
		if !ok || b.NumMax > hi {
			hi = b.NumMax
		}
		ok = true
	}
	return lo, hi, ok
}

// ChunkMeta describes one chunk file.
type ChunkMeta struct {
	ID    int `json:"id"`
	Slots int `json:"slots"` // slots written so far
}

// PartitionMeta is the full storage metadata of one table partition. It is
// persisted by the caller (VectorH keeps it in the WAL, not in the data
// files — "MinMax information is intended to help prevent data accesses,
// therefore it is better to store it separately from that data").
type PartitionMeta struct {
	Table     string       `json:"table"`
	Partition int          `json:"partition"`
	Gen       int          `json:"gen"` // bumped by update-propagation rewrites
	Format    Format       `json:"format"`
	Rows      int64        `json:"rows"`
	Chunks    []ChunkMeta  `json:"chunks"`
	Cols      []ColumnMeta `json:"cols"`
	// PartialGen names the current partial-chunk file generation
	// (partial files are rewritten wholesale on each append); -1 = none.
	PartialGen int `json:"partialGen"`
	// PartialSeq is the high-water mark of partial generations ever written
	// for this partition generation. It never decreases — superseded partial
	// files are deleted lazily (after concurrent readers finish), so a new
	// partial file must never reuse a path that may still be pending
	// deletion.
	PartialSeq int `json:"partialSeq,omitempty"`
}

// NewPartitionMeta returns an empty partition with the given schema.
func NewPartitionMeta(table string, partition int, schema vector.Schema, f Format) *PartitionMeta {
	f.fill()
	m := &PartitionMeta{Table: table, Partition: partition, Format: f, PartialGen: -1}
	for _, field := range schema {
		m.Cols = append(m.Cols, ColumnMeta{Name: field.Name, Type: field.Type})
	}
	return m
}

// Clone deep-copies the partition metadata (chunk list, per-column block
// directories). Writers that must not disturb concurrent readers mutate a
// clone and publish it with a pointer swap — the storage-side half of the
// engine's copy-on-write discipline (PDT masters are the RAM-side half).
func (m *PartitionMeta) Clone() *PartitionMeta {
	out := *m
	out.Chunks = append([]ChunkMeta(nil), m.Chunks...)
	out.Cols = make([]ColumnMeta, len(m.Cols))
	for i, c := range m.Cols {
		out.Cols[i] = c
		out.Cols[i].Blocks = append([]BlockMeta(nil), c.Blocks...)
	}
	return &out
}

// Schema reconstructs the partition schema.
func (m *PartitionMeta) Schema() vector.Schema {
	s := make(vector.Schema, len(m.Cols))
	for i, c := range m.Cols {
		s[i] = vector.Field{Name: c.Name, Type: c.Type}
	}
	return s
}

// Col returns the metadata of the named column.
func (m *PartitionMeta) Col(name string) (*ColumnMeta, error) {
	for i := range m.Cols {
		if m.Cols[i].Name == name {
			return &m.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("colstore: %s.p%d has no column %q", m.Table, m.Partition, name)
}

// Dir returns the HDFS directory of the partition generation.
func (m *PartitionMeta) Dir() string {
	return fmt.Sprintf("/vectorh/%s/p%04d.g%d", m.Table, m.Partition, m.Gen)
}

// ChunkPath returns the HDFS path of a chunk file.
func (m *PartitionMeta) ChunkPath(id int) string {
	return fmt.Sprintf("%s/chunk%06d.dat", m.Dir(), id)
}

// PartialPath returns the HDFS path of the partial-chunk file generation.
func (m *PartitionMeta) PartialPath(gen int) string {
	return fmt.Sprintf("%s/partial%06d.dat", m.Dir(), gen)
}

// Files lists every live data file of the partition (the engine feeds these
// to the namenode to compute locality).
func (m *PartitionMeta) Files() []string {
	var out []string
	for _, c := range m.Chunks {
		out = append(out, m.ChunkPath(c.ID))
	}
	if m.PartialGen >= 0 {
		out = append(out, m.PartialPath(m.PartialGen))
	}
	return out
}

// StorageBytes sums the partition's uncompressed-size estimate and encoded
// on-disk bytes across every column — the observability feed for per-table
// compression-ratio gauges.
func (m *PartitionMeta) StorageBytes() (raw, encoded int64) {
	for i := range m.Cols {
		raw += m.Cols[i].RawBytes
		for j := range m.Cols[i].Blocks {
			encoded += int64(m.Cols[i].Blocks[j].Bytes)
		}
	}
	return raw, encoded
}

// Marshal serializes the metadata (stored in the WAL by the engine).
func (m *PartitionMeta) Marshal() ([]byte, error) { return json.Marshal(m) }

// UnmarshalPartitionMeta parses serialized metadata.
func UnmarshalPartitionMeta(data []byte) (*PartitionMeta, error) {
	var m PartitionMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("colstore: bad partition meta: %w", err)
	}
	return &m, nil
}

// RowRange is a half-open interval of row ids.
type RowRange struct {
	Start, End int64
}

// FullRange covers the whole partition.
func (m *PartitionMeta) FullRange() []RowRange {
	if m.Rows == 0 {
		return nil
	}
	return []RowRange{{0, m.Rows}}
}

// Admits reports whether the block may hold a value inside bd, a bound on
// its column (integer-backed, float or string, in the column's kind): false
// when bd's interval holds no value, or when the MinMax summary lies wholly
// outside it. A nil block or one whose summary was never computed
// (HasMinMax false) admits every interval that holds a value: its
// zero-valued extremes carry no information, and skipping on them would
// silently drop rows. The interval is closed even where the predicate was
// strict — a summary can only prove absence, so the slack costs a block
// read, never a row.
func (m *BlockMeta) Admits(bd expr.Bound) bool {
	summary := m != nil && m.HasMinMax
	switch bd.Kind {
	case vector.Int64:
		return bd.IntLo <= bd.IntHi && (!summary || m.NumMax >= bd.IntLo && m.NumMin <= bd.IntHi)
	case vector.Float64:
		return bd.FloatLo <= bd.FloatHi && (!summary || m.FloatMax >= bd.FloatLo && m.FloatMin <= bd.FloatHi)
	case vector.String:
		if bd.HasStrHi && bd.StrLo > bd.StrHi {
			return false
		}
		return !summary || m.StrMax >= bd.StrLo && (!bd.HasStrHi || m.StrMin <= bd.StrHi)
	}
	return true
}
