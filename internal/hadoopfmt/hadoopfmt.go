// Package hadoopfmt implements simplified "Parquet-like" and "ORC-like"
// columnar file formats with the characteristics the VectorH paper measures
// against (§2, Figure 1):
//
//   - PAX layout: row groups of a fixed ROW COUNT hold one chunk per column,
//     so compressible columns are split into many too-small chunks instead
//     of filling fixed-size blocks;
//   - general-purpose (Snappy-like LZ) compression applied to every chunk,
//     adding decompression cost to all scans;
//   - value-at-a-time decoding through a per-value interface call, unlike
//     the vectorized decompression of the VectorH format;
//   - MinMax statistics placed differently per format: the ORC-like format
//     keeps them in the footer (readable without touching data), while the
//     Parquet-like format embeds them in each chunk header, so evaluating
//     the stats forces the chunk to be read — the paper's explanation of
//     why Presto-on-Parquet reads more data than the columns contain.
//
// The int encodings also differ on purpose: Parquet-like stores int64
// columns as raw 8-byte values ("inefficient handling of 64-bits integers"),
// ORC-like uses varints.
package hadoopfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"vectorh/internal/compress"
	"vectorh/internal/hdfs"
	"vectorh/internal/vector"
)

// Kind selects the simulated format family.
type Kind int

// Format families.
const (
	Parquet Kind = iota
	ORC
)

// String names the format.
func (k Kind) String() string {
	if k == ORC {
		return "orc-like"
	}
	return "parquet-like"
}

// SkipMode models how a reader uses MinMax statistics (Figure 1).
type SkipMode int

const (
	// SkipCPU reads every chunk but skips decompression of disqualified
	// row groups (Presto per footnote 2; the only option on Parquet-like
	// files, whose stats sit inside the chunk).
	SkipCPU SkipMode = iota
	// SkipIO skips both the read and the decompression using footer
	// statistics (only possible on the ORC-like format).
	SkipIO
)

// Options parameterizes a writer.
type Options struct {
	Kind         Kind
	RowGroupRows int // rows per row group; default 8192
}

type chunkMeta struct {
	Offset int64 `json:"offset"`
	Size   int   `json:"size"`
	// Footer statistics (ORC-like only; Parquet-like keeps them in the
	// chunk header).
	NumMin int64 `json:"numMin,omitempty"`
	NumMax int64 `json:"numMax,omitempty"`
}

type rowGroupMeta struct {
	Rows   int         `json:"rows"`
	Chunks []chunkMeta `json:"chunks"` // one per column
}

type fileMeta struct {
	Kind      Kind           `json:"kind"`
	Schema    vector.Schema  `json:"schema"`
	RowGroups []rowGroupMeta `json:"rowGroups"`
	Rows      int64          `json:"rows"`
}

// Writer produces one PAX file.
type Writer struct {
	fs   *hdfs.Cluster
	w    *hdfs.Writer
	path string
	opts Options
	meta fileMeta
	off  int64

	pend []pendCol
	rows int
}

type pendCol struct {
	i64 []int64
	f64 []float64
	str *vector.Vec
}

// NewWriter creates path and returns a writer for the schema.
func NewWriter(fs *hdfs.Cluster, path, node string, schema vector.Schema, opts Options) (*Writer, error) {
	if opts.RowGroupRows <= 0 {
		opts.RowGroupRows = 8192
	}
	hw, err := fs.Create(path, node)
	if err != nil {
		return nil, err
	}
	return &Writer{
		fs:   fs,
		w:    hw,
		path: path,
		opts: opts,
		meta: fileMeta{Kind: opts.Kind, Schema: schema.Clone()},
		pend: make([]pendCol, len(schema)),
	}, nil
}

// Append buffers a dense batch, cutting row groups at the configured count.
func (w *Writer) Append(b *vector.Batch) error {
	if b.Sel != nil {
		b = b.Compact()
	}
	for ci := range w.meta.Schema {
		v := b.Col(ci)
		switch v.Kind() {
		case vector.Int32:
			for _, x := range v.Int32s() {
				w.pend[ci].i64 = append(w.pend[ci].i64, int64(x))
			}
		case vector.Int64:
			w.pend[ci].i64 = append(w.pend[ci].i64, v.Int64s()...)
		case vector.Float64:
			w.pend[ci].f64 = append(w.pend[ci].f64, v.Float64s()...)
		case vector.String:
			if w.pend[ci].str == nil {
				w.pend[ci].str = vector.New(vector.String, 0)
			}
			if err := w.pend[ci].str.AppendRowsChecked(v, nil); err != nil {
				return fmt.Errorf("hadoopfmt: column %s: %w", w.meta.Schema[ci].Name, err)
			}
		default:
			return fmt.Errorf("hadoopfmt: unsupported kind %v", v.Kind())
		}
	}
	w.rows += b.Len()
	for w.rows >= w.opts.RowGroupRows {
		if err := w.flushGroup(w.opts.RowGroupRows); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) flushGroup(n int) error {
	rg := rowGroupMeta{Rows: n}
	for ci, f := range w.meta.Schema {
		var raw []byte
		var lo, hi int64
		switch f.Type.Kind {
		case vector.Int32, vector.Int64:
			vals := w.pend[ci].i64[:n]
			lo, hi = minmax64(vals)
			if w.opts.Kind == Parquet {
				for _, v := range vals {
					raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
				}
			} else {
				for _, v := range vals {
					raw = binary.AppendVarint(raw, v)
				}
			}
			w.pend[ci].i64 = w.pend[ci].i64[n:]
		case vector.Float64:
			vals := w.pend[ci].f64[:n]
			for _, v := range vals {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
			}
			w.pend[ci].f64 = w.pend[ci].f64[n:]
		case vector.String:
			str := w.pend[ci].str
			for i := range n {
				s := str.StrAt(i)
				raw = binary.AppendUvarint(raw, uint64(len(s)))
				raw = append(raw, s...)
			}
			// A view of the rest, as the slices above: the next Append
			// copies what is left once, however many groups were cut.
			w.pend[ci].str = str.Slice(n, str.Len())
		}
		// Chunk = header (Parquet-like embeds the stats here) + LZ body.
		var chunk []byte
		if w.opts.Kind == Parquet {
			chunk = binary.AppendVarint(chunk, lo)
			chunk = binary.AppendVarint(chunk, hi)
		}
		chunk = append(chunk, compress.LZCompress(raw)...)
		cm := chunkMeta{Offset: w.off, Size: len(chunk)}
		if w.opts.Kind == ORC {
			cm.NumMin, cm.NumMax = lo, hi
		}
		rg.Chunks = append(rg.Chunks, cm)
		if _, err := w.w.Write(chunk); err != nil {
			return err
		}
		w.off += int64(len(chunk))
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.Rows += int64(n)
	w.rows -= n
	return nil
}

// Close flushes the final row group and the footer.
func (w *Writer) Close() error {
	if w.rows > 0 {
		if err := w.flushGroup(w.rows); err != nil {
			return err
		}
	}
	footer, err := json.Marshal(&w.meta)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(footer); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], uint32(len(footer)))
	if _, err := w.w.Write(tail[:]); err != nil {
		return err
	}
	return w.w.Close()
}

func minmax64(vals []int64) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// Reader reads a PAX file.
type Reader struct {
	fs   *hdfs.Cluster
	path string
	node string
	meta fileMeta
	r    *hdfs.Reader
}

// Open reads the footer of a PAX file.
func Open(fs *hdfs.Cluster, path, node string) (*Reader, error) {
	r, err := fs.Open(path, node)
	if err != nil {
		return nil, err
	}
	size, err := fs.Size(path)
	if err != nil {
		return nil, err
	}
	if size < 4 {
		return nil, fmt.Errorf("hadoopfmt: %s truncated", path)
	}
	var tail [4]byte
	if _, err := r.ReadAt(tail[:], size-4); err != nil {
		return nil, err
	}
	flen := int64(binary.LittleEndian.Uint32(tail[:]))
	if flen <= 0 || flen > size-4 {
		return nil, fmt.Errorf("hadoopfmt: %s bad footer length %d", path, flen)
	}
	footer := make([]byte, flen)
	if _, err := r.ReadAt(footer, size-4-flen); err != nil {
		return nil, err
	}
	rd := &Reader{fs: fs, path: path, node: node, r: r}
	if err := json.Unmarshal(footer, &rd.meta); err != nil {
		return nil, fmt.Errorf("hadoopfmt: %s bad footer: %w", path, err)
	}
	return rd, nil
}

// Schema returns the file schema.
func (r *Reader) Schema() vector.Schema { return r.meta.Schema }

// Rows returns the total row count.
func (r *Reader) Rows() int64 { return r.meta.Rows }

// Kind returns the format family of the file.
func (r *Reader) Kind() Kind { return r.meta.Kind }

// RangePred is a [Lo, Hi] predicate on one numeric column used for row-group
// skipping.
type RangePred struct {
	Col    string
	Lo, Hi int64
}

// RowIter iterates rows value-at-a-time — deliberately: each value crosses a
// per-column decoder interface, modelling the tuple-at-a-time readers the
// paper profiles.
type RowIter struct {
	r       *Reader
	cols    []int
	kinds   []vector.Kind
	pred    *RangePred
	predCol int // index within cols; -1 when pred column not projected
	mode    SkipMode

	rg       int
	rowInRG  int
	rgRows   int
	decoders []valueDecoder
	row      []any
}

// Scan opens a row iterator over the projection. The predicate column must
// be part of cols when a predicate is given.
func (r *Reader) Scan(cols []string, pred *RangePred, mode SkipMode) (*RowIter, error) {
	it := &RowIter{r: r, pred: pred, predCol: -1, mode: mode}
	for _, name := range cols {
		ci := r.meta.Schema.Index(name)
		if ci < 0 {
			return nil, fmt.Errorf("hadoopfmt: no column %q in %s", name, r.path)
		}
		if pred != nil && name == pred.Col {
			it.predCol = len(it.cols)
		}
		it.cols = append(it.cols, ci)
		it.kinds = append(it.kinds, r.meta.Schema[ci].Type.Kind)
	}
	if pred != nil && it.predCol < 0 {
		return nil, fmt.Errorf("hadoopfmt: predicate column %q not in projection", pred.Col)
	}
	if mode == SkipIO && r.meta.Kind != ORC {
		// Parquet-like stats live inside the chunks; IO cannot be
		// skipped. Degrade exactly like the paper observes.
		it.mode = SkipCPU
	}
	it.row = make([]any, len(it.cols))
	return it, nil
}

// Next returns the next row (valid until the following call), or nil at EOF.
// Rows of skipped row groups are not returned.
func (it *RowIter) Next() ([]any, error) {
	for {
		if it.decoders == nil {
			ok, err := it.openGroup()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
		}
		if it.rowInRG >= it.rgRows {
			it.decoders = nil
			it.rg++
			continue
		}
		for i, d := range it.decoders {
			v, err := d.next()
			if err != nil {
				return nil, err
			}
			it.row[i] = v
		}
		it.rowInRG++
		if it.pred != nil {
			switch v := it.row[it.predCol].(type) {
			case int64:
				if v < it.pred.Lo || v > it.pred.Hi {
					continue
				}
			case int32:
				if int64(v) < it.pred.Lo || int64(v) > it.pred.Hi {
					continue
				}
			}
		}
		return it.row, nil
	}
}

// openGroup positions the iterator on the next row group that survives
// statistics-based skipping under the configured mode.
func (it *RowIter) openGroup() (bool, error) {
	meta := &it.r.meta
	for ; it.rg < len(meta.RowGroups); it.rg++ {
		rg := &meta.RowGroups[it.rg]
		// Footer-stats skipping (ORC-like + SkipIO): no chunk bytes read.
		if it.mode == SkipIO && it.pred != nil {
			ci := it.cols[it.predCol]
			cm := rg.Chunks[ci]
			if cm.NumMax < it.pred.Lo || cm.NumMin > it.pred.Hi {
				continue
			}
		}
		// Read the projected chunks (IO happens here).
		chunks := make([][]byte, len(it.cols))
		for i, ci := range it.cols {
			cm := rg.Chunks[ci]
			buf := make([]byte, cm.Size)
			if _, err := it.r.r.ReadAt(buf, cm.Offset); err != nil {
				return false, err
			}
			chunks[i] = buf
		}
		// Chunk-header-stats skipping (SkipCPU): bytes were read; only
		// decompression is avoided.
		if it.mode == SkipCPU && it.pred != nil {
			lo, hi, body, err := it.chunkStats(chunks[it.predCol], it.cols[it.predCol], rg)
			if err != nil {
				return false, err
			}
			_ = body
			if hi < it.pred.Lo || lo > it.pred.Hi {
				continue
			}
		}
		it.decoders = make([]valueDecoder, len(it.cols))
		for i := range it.cols {
			d, err := newValueDecoder(meta.Kind, it.kinds[i], stripHeader(meta.Kind, it.kinds[i], chunks[i]))
			if err != nil {
				return false, err
			}
			it.decoders[i] = d
		}
		it.rowInRG, it.rgRows = 0, rg.Rows
		return true, nil
	}
	return false, nil
}

// chunkStats extracts the MinMax of a chunk: from the chunk header for
// Parquet-like files, from the footer for ORC-like files.
func (it *RowIter) chunkStats(chunk []byte, ci int, rg *rowGroupMeta) (lo, hi int64, body []byte, err error) {
	if it.r.meta.Kind == Parquet {
		lo, n1 := binary.Varint(chunk)
		if n1 <= 0 {
			return 0, 0, nil, fmt.Errorf("hadoopfmt: bad chunk header")
		}
		hi, n2 := binary.Varint(chunk[n1:])
		if n2 <= 0 {
			return 0, 0, nil, fmt.Errorf("hadoopfmt: bad chunk header")
		}
		return lo, hi, chunk[n1+n2:], nil
	}
	cm := rg.Chunks[ci]
	return cm.NumMin, cm.NumMax, chunk, nil
}

// stripHeader removes the Parquet-like embedded stats header from a numeric
// chunk.
func stripHeader(k Kind, vk vector.Kind, chunk []byte) []byte {
	if k != Parquet {
		return chunk
	}
	_, n1 := binary.Varint(chunk)
	_, n2 := binary.Varint(chunk[n1:])
	return chunk[n1+n2:]
}

// valueDecoder decodes one value per call — the tuple-at-a-time path.
type valueDecoder interface {
	next() (any, error)
}

func newValueDecoder(k Kind, vk vector.Kind, chunk []byte) (valueDecoder, error) {
	raw, err := compress.LZDecompress(chunk)
	if err != nil {
		return nil, err
	}
	switch vk {
	case vector.Int32:
		if k == Parquet {
			return &fixedIntDecoder{raw: raw, width32: true}, nil
		}
		return &varIntDecoder{raw: raw, width32: true}, nil
	case vector.Int64:
		if k == Parquet {
			return &fixedIntDecoder{raw: raw}, nil
		}
		return &varIntDecoder{raw: raw}, nil
	case vector.Float64:
		return &floatDecoder{raw: raw}, nil
	case vector.String:
		return &stringDecoder{raw: raw}, nil
	default:
		return nil, fmt.Errorf("hadoopfmt: unsupported kind %v", vk)
	}
}

type fixedIntDecoder struct {
	raw     []byte
	pos     int
	width32 bool
}

func (d *fixedIntDecoder) next() (any, error) {
	if d.pos+8 > len(d.raw) {
		return nil, fmt.Errorf("hadoopfmt: int chunk exhausted")
	}
	v := int64(binary.LittleEndian.Uint64(d.raw[d.pos:]))
	d.pos += 8
	if d.width32 {
		return int32(v), nil
	}
	return v, nil
}

type varIntDecoder struct {
	raw     []byte
	pos     int
	width32 bool
}

func (d *varIntDecoder) next() (any, error) {
	v, n := binary.Varint(d.raw[d.pos:])
	if n <= 0 {
		return nil, fmt.Errorf("hadoopfmt: varint chunk exhausted")
	}
	d.pos += n
	if d.width32 {
		return int32(v), nil
	}
	return v, nil
}

type floatDecoder struct {
	raw []byte
	pos int
}

func (d *floatDecoder) next() (any, error) {
	if d.pos+8 > len(d.raw) {
		return nil, fmt.Errorf("hadoopfmt: float chunk exhausted")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.raw[d.pos:]))
	d.pos += 8
	return v, nil
}

type stringDecoder struct {
	raw []byte
	pos int
}

func (d *stringDecoder) next() (any, error) {
	l, n := binary.Uvarint(d.raw[d.pos:])
	if n <= 0 || d.pos+n+int(l) > len(d.raw) {
		return nil, fmt.Errorf("hadoopfmt: string chunk exhausted")
	}
	d.pos += n
	v := string(d.raw[d.pos : d.pos+int(l)])
	d.pos += int(l)
	return v, nil
}

// ColumnBytes reports the total encoded size of one column across all row
// groups — the quantity compared in the bottom chart of Figure 1.
func (r *Reader) ColumnBytes(col string) (int64, error) {
	ci := r.meta.Schema.Index(col)
	if ci < 0 {
		return 0, fmt.Errorf("hadoopfmt: no column %q", col)
	}
	var total int64
	for _, rg := range r.meta.RowGroups {
		total += int64(rg.Chunks[ci].Size)
	}
	return total, nil
}
