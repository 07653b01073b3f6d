package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"vectorh/internal/compress"
	"vectorh/internal/hdfs"
	"vectorh/internal/obs"
	"vectorh/internal/vector"
)

// Block payload tags (compress reserves 1..4 for its own schemes).
const tagFloatRaw = 5

// colData holds one decoded column block (one of the slices is used,
// depending on the column kind). A PDICT-compressed string block is held in
// code form: pd carries the parsed dictionary while the packed code stream
// stays compressed until someone asks for codes or values — the storage
// half of executing on compressed data. str may later be filled in next to
// pd by a scanner that needed value form, in its own copy of the colData.
type colData struct {
	i64 []int64
	f64 []float64
	str compress.StrCol
	pd  *compress.PDictBlock
}

func (d *colData) length(k vector.Kind) int {
	switch k {
	case vector.Float64:
		return len(d.f64)
	case vector.String:
		if d.pd != nil {
			return d.pd.Rows()
		}
		return d.str.Len()
	default:
		return len(d.i64)
	}
}

func (d *colData) slice(k vector.Kind, lo, hi int) colData {
	switch k {
	case vector.Float64:
		return colData{f64: d.f64[lo:hi]}
	case vector.String:
		return colData{str: d.str.Slice(lo, hi)}
	default:
		return colData{i64: d.i64[lo:hi]}
	}
}

// room returns s with capacity for n more values, at least doubling when it
// has to grow: a pending buffer reaches its steady size — a few blocks — in
// a handful of copies instead of append's dozens.
func room[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s
}

// appendBatchCol appends the live rows of v and returns their contribution
// to rawBytesEstimate.
func (d *colData) appendBatchCol(v *vector.Vec, sel []int32) (raw int) {
	n := v.Len()
	if sel != nil {
		n = len(sel)
	}
	switch v.Kind() {
	case vector.Int32:
		src := v.Int32s()
		d.i64 = room(d.i64, n)
		if sel == nil {
			for _, x := range src {
				d.i64 = append(d.i64, int64(x))
			}
		} else {
			for _, i := range sel {
				d.i64 = append(d.i64, int64(src[i]))
			}
		}
		return n * 8
	case vector.Int64:
		src := v.Int64s()
		d.i64 = room(d.i64, n)
		if sel == nil {
			d.i64 = append(d.i64, src...)
		} else {
			for _, i := range sel {
				d.i64 = append(d.i64, src[i])
			}
		}
		return n * 8
	case vector.Float64:
		src := v.Float64s()
		d.f64 = room(d.f64, n)
		if sel == nil {
			d.f64 = append(d.f64, src...)
		} else {
			for _, i := range sel {
				d.f64 = append(d.f64, src[i])
			}
		}
		return n * 8
	case vector.String:
		before := d.str.ValueBytes()
		if sel == nil {
			for i := range n {
				d.str.Append(v.StrAt(i))
			}
		} else {
			for _, i := range sel {
				d.str.Append(v.StrAt(int(i)))
			}
		}
		return d.str.ValueBytes() - before + n*4
	default:
		panic(fmt.Sprintf("colstore: unsupported kind %v", v.Kind()))
	}
}

// drop removes the first k values, shifting the rest to the front of the
// buffer so later appends keep reusing it (strings: the rest becomes a view
// that moves to an arena of its own at the next append).
func (d *colData) drop(kind vector.Kind, k int) {
	switch kind {
	case vector.Float64:
		d.f64 = d.f64[:copy(d.f64, d.f64[k:])]
	case vector.String:
		d.str = d.str.Slice(k, d.str.Len())
	default:
		d.i64 = d.i64[:copy(d.i64, d.i64[k:])]
	}
}

// encodeBlock appends values compressed with the best lightweight scheme
// for the kind to dst: PFOR vs PFOR-DELTA for integers, PDICT vs raw+LZ for
// strings, raw bytes for floats (which lightweight schemes do not compress,
// per Fig. 1). e lends the encoders their staging memory.
func encodeBlock(e *compress.Encoder, dst []byte, k vector.Kind, d colData) []byte {
	switch k {
	case vector.Float64:
		dst = append(dst, tagFloatRaw)
		dst = binary.AppendUvarint(dst, uint64(len(d.f64)))
		for _, f := range d.f64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst
	case vector.String:
		return e.AppendStrings(dst, &d.str)
	default:
		return e.AppendInts(dst, d.i64)
	}
}

// decodeBlock inverts encodeBlock, producing value form for the appender's
// pending buffer.
func decodeBlock(k vector.Kind, data []byte) (colData, error) {
	d, err := decodeBlockScan(k, data, nil)
	if err != nil || d.pd == nil {
		return d, err
	}
	str, err := d.pd.Materialize()
	return colData{str: str}, err
}

// decodeBlockScan is the scanner-side decode, the one form a block is
// cached in: a PDICT-encoded string block is merely opened (dictionary
// parsed, code stream left packed), every other block is decoded to values.
// Nothing decoded aliases data. scratch, when non-nil, lends the raw+LZ
// decoder its staging buffer; decode targets are still freshly allocated
// because they escape as zero-copy vector views.
func decodeBlockScan(k vector.Kind, data []byte, scratch *compress.Scratch) (colData, error) {
	if len(data) == 0 {
		return colData{}, compress.ErrCorrupt
	}
	switch k {
	case vector.Float64:
		if data[0] != tagFloatRaw {
			return colData{}, fmt.Errorf("colstore: bad float block tag %d", data[0])
		}
		body := data[1:]
		n, sz := binary.Uvarint(body)
		if sz <= 0 || n > uint64(len(body)-sz)/8 { // n*8 could wrap
			return colData{}, compress.ErrCorrupt
		}
		body = body[sz:]
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
		return colData{f64: out}, nil
	case vector.String:
		if compress.IsPDict(data) {
			pd, err := compress.PDictOpen(data)
			return colData{pd: pd}, err
		}
		str, err := compress.DecodeStringsScratch(data, scratch)
		return colData{str: str}, err
	default:
		var (
			i64 []int64
			err error
		)
		if compress.IsPFORDelta(data) {
			i64, err = compress.PFORDeltaDecode(data, nil)
		} else {
			i64, err = compress.PFORDecode(data, nil)
		}
		return colData{i64: i64}, err
	}
}

// valueBytes estimates the materialized in-memory footprint of value-form
// column data (string rows count their bytes and arena offset; code-form
// blocks count only their dictionary values, the part that was
// materialized).
func valueBytes(k vector.Kind, d colData) int64 {
	switch k {
	case vector.Float64:
		return int64(len(d.f64)) * 8
	case vector.String:
		if d.pd != nil {
			return strSliceBytes(d.pd.Dict.Values)
		}
		return strColBytes(&d.str)
	default:
		return int64(len(d.i64)) * 8
	}
}

func strColBytes(c *compress.StrCol) int64 { return int64(c.ValueBytes() + 4*c.Len()) }

func strSliceBytes(ss []string) int64 {
	n := int64(len(ss)) * 16
	for _, s := range ss {
		n += int64(len(s))
	}
	return n
}

// blockMinMax computes the MinMax summary for a block. Zero-row blocks keep
// HasMinMax false — their summary carries no information and predicates
// must not skip on it.
func blockMinMax(k vector.Kind, d colData, b *BlockMeta) {
	b.HasMinMax = d.length(k) > 0
	switch k {
	case vector.Float64:
		if len(d.f64) == 0 {
			return
		}
		b.FloatMin, b.FloatMax = d.f64[0], d.f64[0]
		for _, v := range d.f64 {
			if v < b.FloatMin {
				b.FloatMin = v
			}
			if v > b.FloatMax {
				b.FloatMax = v
			}
		}
	case vector.String:
		if d.str.Len() == 0 {
			return
		}
		lo, hi := d.str.At(0), d.str.At(0)
		for i := range d.str.Len() {
			if v := d.str.At(i); v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		// Clones: the directory must not keep the block's arena alive.
		b.StrMin, b.StrMax = strings.Clone(lo), strings.Clone(hi)
	default:
		if len(d.i64) == 0 {
			return
		}
		b.NumMin, b.NumMax = d.i64[0], d.i64[0]
		for _, v := range d.i64 {
			if v < b.NumMin {
				b.NumMin = v
			}
			if v > b.NumMax {
				b.NumMax = v
			}
		}
	}
}

// zeroPage pads block slots out to their fixed size; it is never written.
var zeroPage [64 << 10]byte

// Appender buffers rows for one partition and writes them as compressed
// blocks: full blocks land at fixed offsets in chunk files, the final
// partially filled block of each column goes to a compact partial-chunk
// file that the next append consumes and replaces (§3 "Original Layout" /
// "File-per-partition Layout").
type Appender struct {
	fs   *hdfs.Cluster
	meta *PartitionMeta
	node string // writer node; gets the first HDFS replica

	pend      []colData // per column, pending values not yet in full blocks
	pendRaw   []int     // per column, rawBytesEstimate of pend, kept incrementally
	flushedTo []int64   // per column, rows already covered by full blocks

	// Encode staging, owned for the appender's lifetime so encoding a block
	// allocates nothing once warm: the encoders' scratch, two output buffers
	// (the block-size search keeps the last fitting encoding in one while
	// it tries a longer prefix in the other) and the partial-chunk file
	// image.
	enc      compress.Encoder
	buf, alt []byte
	partial  []byte

	// superseded lists files this append consumed and replaced (the previous
	// partial-chunk generation). They are NOT deleted here: a concurrent
	// scanner holding the pre-append metadata may still read them. The
	// caller deletes them once no scan references the old metadata.
	superseded []string
}

// Superseded returns the data files this append replaced; the caller owns
// their deletion (deferred until concurrent readers of the old metadata
// generation finish).
func (a *Appender) Superseded() []string { return a.superseded }

// NewAppender opens the partition for appending, reading back any partial
// blocks from the previous append (which are then superseded on Close).
func NewAppender(fs *hdfs.Cluster, meta *PartitionMeta, node string) (*Appender, error) {
	a := &Appender{
		fs:        fs,
		meta:      meta,
		node:      node,
		pend:      make([]colData, len(meta.Cols)),
		pendRaw:   make([]int, len(meta.Cols)),
		flushedTo: make([]int64, len(meta.Cols)),
	}
	for ci := range meta.Cols {
		c := &meta.Cols[ci]
		n := len(c.Blocks)
		if n > 0 && c.Blocks[n-1].Chunk == -1 {
			// Read the partial block back into the pending buffer.
			pb := c.Blocks[n-1]
			data, err := a.readPayload(pb)
			if err != nil {
				return nil, fmt.Errorf("colstore: reading partial block of %s: %w", c.Name, err)
			}
			d, err := decodeBlock(c.Type.Kind, data)
			if err != nil {
				return nil, err
			}
			a.pend[ci] = d
			a.pendRaw[ci] = rawBytesEstimate(c.Type.Kind, d)
			c.Blocks = c.Blocks[:n-1]
			// The partial block's rows re-flush below; un-count their raw
			// bytes so the running estimate is not doubled.
			c.RawBytes -= int64(a.pendRaw[ci])
		}
		if n := len(c.Blocks); n > 0 {
			a.flushedTo[ci] = c.Blocks[n-1].RowStart + int64(c.Blocks[n-1].Rows)
		}
	}
	if meta.PartialGen >= 0 {
		// The old partial file is fully consumed; it is superseded by this
		// append but deletion is deferred to the caller (readers of the
		// pre-append metadata may still need it).
		path := meta.PartialPath(meta.PartialGen)
		if fs.Exists(path) {
			a.superseded = append(a.superseded, path)
		}
	}
	return a, nil
}

// Append buffers a batch (honoring its selection vector) and flushes any
// full blocks that have accumulated.
func (a *Appender) Append(b *vector.Batch) error {
	if b.NumCols() != len(a.meta.Cols) {
		return fmt.Errorf("colstore: batch has %d columns, partition %d", b.NumCols(), len(a.meta.Cols))
	}
	for ci := range a.meta.Cols {
		a.pendRaw[ci] += a.pend[ci].appendBatchCol(b.Col(ci), b.Sel)
	}
	a.meta.Rows += int64(b.Len())
	return a.flushFull()
}

// flushFull writes pending data to full blocks while a comfortable margin of
// data remains buffered (the remainder becomes the partial block at Close).
func (a *Appender) flushFull() error {
	bs := a.meta.Format.BlockSize
	for ci := range a.meta.Cols {
		// Only cut a block when enough raw bytes are buffered to very likely
		// fill one compressed block; force a cut when highly compressible
		// data would otherwise buffer without bound.
		for a.pendRaw[ci] >= 4*bs {
			n := a.pend[ci].length(a.meta.Cols[ci].Type.Kind)
			cut, err := a.cutOneBlock(ci, n, a.pendRaw[ci] >= 64*bs, nil)
			if err != nil {
				return err
			}
			if cut == 0 {
				break
			}
		}
	}
	return nil
}

func rawBytesEstimate(k vector.Kind, d colData) int {
	switch k {
	case vector.Float64:
		return len(d.f64) * 8
	case vector.String:
		return d.str.ValueBytes() + 4*d.str.Len()
	default:
		return len(d.i64) * 8
	}
}

// encode compresses d into a.buf and returns the image; it stays valid
// until the next encode.
func (a *Appender) encode(k vector.Kind, d colData) []byte {
	a.buf = encodeBlock(&a.enc, a.buf[:0], k, d)
	return a.buf
}

// cutOneBlock encodes a prefix of the pending values into one block of at
// most BlockSize compressed bytes (growing/shrinking the prefix with a
// doubling search) and writes it to the current chunk file. With force set,
// it also emits undersized final blocks. whole, when non-nil, is the
// encoding of all avail values the caller already made. It returns the rows
// consumed.
func (a *Appender) cutOneBlock(ci, avail int, force bool, whole []byte) (int, error) {
	c := &a.meta.Cols[ci]
	kind := c.Type.Kind
	bs := a.meta.Format.BlockSize
	limit := min(avail, a.meta.Format.MaxRowsPerBlock, bs*8) // lower bound ~1 bit/value
	k := limit
	d := a.pend[ci]
	enc := whole
	if enc == nil || k != avail {
		enc = a.encode(kind, d.slice(kind, 0, k))
	}
	for len(enc) > bs && k > 1 {
		k /= 2
		enc = a.encode(kind, d.slice(kind, 0, k))
	}
	for len(enc) <= bs/2 && k < limit {
		k2 := min(k*2, limit)
		a.buf, a.alt = a.alt, a.buf // enc stays intact while the longer prefix is tried
		enc2 := a.encode(kind, d.slice(kind, 0, k2))
		if len(enc2) > bs {
			break
		}
		k, enc = k2, enc2
	}
	if !force && k == avail && len(enc) <= bs/2 {
		return 0, nil // too little data; keep buffering
	}
	slots := (len(enc) + bs - 1) / bs // oversized single values span slots
	chunk, slot, err := a.allocSlots(slots)
	if err != nil {
		return 0, err
	}
	if err := a.writePadded(a.meta.ChunkPath(chunk), enc, slots*bs); err != nil {
		return 0, err
	}
	a.blockWritten(ci, BlockMeta{Chunk: chunk, Slot: slot, Rows: k, Bytes: len(enc)})
	a.flushedTo[ci] += int64(k)
	a.pend[ci].drop(kind, k)
	return k, nil
}

// blockWritten records the block holding the first bm.Rows pending values of
// column ci in the directory: its MinMax summary and raw-size accounting.
func (a *Appender) blockWritten(ci int, bm BlockMeta) {
	c := &a.meta.Cols[ci]
	d := a.pend[ci].slice(c.Type.Kind, 0, bm.Rows)
	bm.RowStart = a.flushedTo[ci]
	blockMinMax(c.Type.Kind, d, &bm)
	c.Blocks = append(c.Blocks, bm)
	raw := rawBytesEstimate(c.Type.Kind, d)
	c.RawBytes += int64(raw)
	a.pendRaw[ci] -= raw
}

// allocSlots reserves consecutive slots in the open chunk file, opening a
// new chunk when the current one is full ("only one block chunk file is
// open for writing at a time").
func (a *Appender) allocSlots(n int) (chunk, slot int, err error) {
	m := a.meta
	if len(m.Chunks) == 0 || m.Chunks[len(m.Chunks)-1].Slots+n > m.Format.BlocksPerChunk {
		m.Chunks = append(m.Chunks, ChunkMeta{ID: len(m.Chunks)})
	}
	cm := &m.Chunks[len(m.Chunks)-1]
	slot = cm.Slots
	cm.Slots += n
	return cm.ID, slot, nil
}

func (a *Appender) writePadded(path string, enc []byte, padded int) error {
	w, err := a.fs.Append(path, a.node)
	if err != nil {
		return err
	}
	if _, err := w.Write(enc); err != nil {
		return err
	}
	for pad := padded - len(enc); pad > 0; {
		n, err := w.Write(zeroPage[:min(pad, len(zeroPage))])
		if err != nil {
			return err
		}
		pad -= n
	}
	return w.Close()
}

// Close flushes every remaining pending value: full blocks go to chunk
// files, the final under-full block of each column goes to a fresh compact
// partial-chunk file.
func (a *Appender) Close() error {
	bs := a.meta.Format.BlockSize
	a.partial = a.partial[:0]
	for ci := range a.meta.Cols {
		kind := a.meta.Cols[ci].Type.Kind
		for {
			n := a.pend[ci].length(kind)
			if n == 0 {
				break
			}
			var whole []byte
			if n <= a.meta.Format.MaxRowsPerBlock {
				if whole = a.encode(kind, a.pend[ci]); len(whole) <= bs {
					// The remainder fits one (partial) block. For partial
					// blocks, Slot records the byte offset inside the
					// compact partial file.
					a.blockWritten(ci, BlockMeta{Chunk: -1, Slot: len(a.partial), Rows: n, Bytes: len(whole)})
					a.partial = append(a.partial, whole...)
					break
				}
			}
			if _, err := a.cutOneBlock(ci, n, true, whole); err != nil {
				return err
			}
		}
	}
	// Row-count invariant: every column must cover meta.Rows.
	for ci := range a.meta.Cols {
		c := &a.meta.Cols[ci]
		if covered := a.flushedTo[ci] + int64(a.pend[ci].length(c.Type.Kind)); covered != a.meta.Rows {
			return fmt.Errorf("colstore: column %s covers %d of %d rows", c.Name, covered, a.meta.Rows)
		}
	}
	if len(a.partial) == 0 {
		a.meta.PartialGen = -1
		return nil
	}
	a.meta.PartialSeq++
	a.meta.PartialGen = a.meta.PartialSeq
	path := a.meta.PartialPath(a.meta.PartialGen)
	if a.fs.Exists(path) {
		// Partial generations are monotonic precisely so this cannot happen
		// while a superseded file awaits deferred deletion.
		return fmt.Errorf("colstore: partial generation %d of %s.p%d already exists", a.meta.PartialGen, a.meta.Table, a.meta.Partition)
	}
	w, err := a.fs.Create(path, a.node)
	if err != nil {
		return err
	}
	if _, err := w.Write(a.partial); err != nil {
		return err
	}
	return w.Close()
}

// readPayload fetches a block's compressed bytes.
func (a *Appender) readPayload(b BlockMeta) ([]byte, error) {
	return readPayloadInto(a.fs, a.meta, a.node, b, nil)
}

// readPayloadInto fetches a block's compressed bytes, reusing buf when it
// has the capacity: every block decoder, PDictOpen included, copies out
// what it keeps, so a scanner reads each block into one reused buffer.
func readPayloadInto(fs *hdfs.Cluster, m *PartitionMeta, node string, b BlockMeta, buf []byte) ([]byte, error) {
	var path string
	var off int64
	if b.Chunk >= 0 {
		path = m.ChunkPath(b.Chunk)
		off = int64(b.Slot) * int64(m.Format.BlockSize)
	} else {
		path = m.PartialPath(m.PartialGen)
		off = int64(b.Slot)
	}
	r, err := fs.Open(path, node)
	if err != nil {
		return nil, err
	}
	if cap(buf) < b.Bytes {
		buf = make([]byte, b.Bytes)
	}
	buf = buf[:b.Bytes]
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Scanner reads a projection of a partition over a set of row ranges,
// producing vectors of up to vector.MaxSize rows. The span API (NextSpan /
// SpanMeta / ColVec) decouples cursor advancement from column decode, so a
// late-materializing scan can judge a span on its blocks' directory entries
// (MinMax skipping: a block no span decodes is never read), decode only its
// predicate columns, and fetch the payload columns afterwards, or not at
// all. Every column read goes through loadBlock: a block is decoded whole,
// once, into its one cached form (a PDICT string block opened, not
// materialized) and shared through the decoded-block cache when one is
// attached. Whether a string column leaves as codes or values is the scan's
// choice (SetCodeExec); value form is materialized scanner-local and never
// cached.
type Scanner struct {
	fs     *hdfs.Cluster
	meta   *PartitionMeta
	node   string
	cols   []int
	kinds  []vector.Kind
	ranges []RowRange

	ri     int
	cursor int64
	cache  []cachedBlock
	bc     *BlockCache // optional shared decoded-block cache
	stats  obs.ScanIO

	codeExec bool // serve PDICT string blocks as dictionary-code vectors

	// Decode scratch reused across blocks: the compressed-payload read buffer
	// and the raw+LZ staging bytes. Decode targets are never reused — they
	// escape upstream as zero-copy vector views.
	scratch    compress.Scratch
	payloadBuf []byte

	totalBytes int64 // compressed bytes of every projected block (skip baseline)
	hitBytes   int64 // compressed bytes served from the shared cache
}

// Stats returns the scanner's cumulative counters. The scanner fills the
// block counters — BlocksRead, BytesDecoded, CacheHits, BytesSkipped and
// BytesMaterialized; its caller, which judges and merges the spans, counts
// SpansPruned, DeltaSpans and DeletedRows.
func (s *Scanner) Stats() obs.ScanIO {
	st := s.stats
	if skipped := s.totalBytes - st.BytesDecoded - s.hitBytes; skipped > 0 {
		st.BytesSkipped = skipped
	}
	return st
}

// SetCache attaches a shared decoded-block cache: blocks already decoded by
// any scanner (this query or a concurrent one) are served as zero-copy
// column views instead of being re-read and re-decompressed.
func (s *Scanner) SetCache(bc *BlockCache) { s.bc = bc }

// SetCodeExec toggles execution on compressed data for this scan: when on,
// PDICT string blocks surface dictionary-code vectors (and their
// dictionaries via SpanDict) instead of materialized strings. It decides
// what the scan returns, not what the block cache holds: every scan caches
// and finds a PDICT block in code form.
func (s *Scanner) SetCodeExec(on bool) { s.codeExec = on }

type cachedBlock struct {
	lo, hi int64
	data   colData
	// codesCharged records that this scanner already counted the block's
	// packed-code bytes as decoded (the charge is deferred until the code
	// stream is actually unpacked).
	codesCharged bool
}

// NewScanner opens a scan of the named columns over the given ranges (nil
// ranges means the full partition).
func NewScanner(fs *hdfs.Cluster, meta *PartitionMeta, node string, cols []string, ranges []RowRange) (*Scanner, error) {
	if ranges == nil {
		ranges = meta.FullRange()
	}
	s := &Scanner{fs: fs, meta: meta, node: node, ranges: ranges}
	for _, name := range cols {
		found := false
		for ci := range meta.Cols {
			if meta.Cols[ci].Name == name {
				s.cols = append(s.cols, ci)
				s.kinds = append(s.kinds, meta.Cols[ci].Type.Kind)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("colstore: no column %q in %s.p%d", name, meta.Table, meta.Partition)
		}
	}
	s.cache = make([]cachedBlock, len(s.cols))
	if len(ranges) > 0 {
		s.cursor = ranges[0].Start
	}
	for _, ci := range s.cols {
		for bi := range meta.Cols[ci].Blocks {
			s.totalBytes += int64(meta.Cols[ci].Blocks[bi].Bytes)
		}
	}
	return s, nil
}

// Next returns the next batch of all projected columns and the row id of
// its first tuple, or nil at end of scan.
func (s *Scanner) Next() (*vector.Batch, int64, error) {
	start, n, err := s.NextSpan(nil)
	if err != nil || n == 0 {
		return nil, 0, err
	}
	batch := &vector.Batch{Vecs: make([]*vector.Vec, len(s.cols))}
	for i := range s.cols {
		if batch.Vecs[i], err = s.ColVec(i, start, n); err != nil {
			return nil, 0, err
		}
	}
	return batch, start, nil
}

// NextSpan advances the cursor to the next span of up to vector.MaxSize
// rows inside the scan's row ranges and returns its start row and length
// (n == 0 at end of scan). The span is clamped so every lead column
// (projection slots; nil = all columns) can serve it from a single cached
// block; other columns stitch across block boundaries in ColVec.
// No column is decoded for slots the caller never asks about.
func (s *Scanner) NextSpan(lead []int) (int64, int, error) {
	for s.ri < len(s.ranges) && s.cursor >= s.ranges[s.ri].End {
		s.ri++
		if s.ri < len(s.ranges) {
			s.cursor = s.ranges[s.ri].Start
		}
	}
	if s.ri >= len(s.ranges) {
		return 0, 0, nil
	}
	n := s.ranges[s.ri].End - s.cursor
	if n > vector.MaxSize {
		n = vector.MaxSize
	}
	// Clamping needs only block boundaries, never decoded data — decode is
	// deferred until ColVec actually asks for a column, so a span
	// the predicate verdicts kill (SpanDict miss, block MinMax disjoint)
	// skips its blocks entirely.
	clamp := func(slot int) error {
		b, err := s.blockFor(slot, s.cursor)
		if err != nil {
			return err
		}
		if avail := b.RowStart + int64(b.Rows) - s.cursor; avail < n {
			n = avail
		}
		return nil
	}
	if lead == nil {
		for i := range s.cols {
			if err := clamp(i); err != nil {
				return 0, 0, err
			}
		}
	} else {
		for _, i := range lead {
			if err := clamp(i); err != nil {
				return 0, 0, err
			}
		}
	}
	start := s.cursor
	s.cursor += n
	return start, int(n), nil
}

// ColVec decodes rows [start, start+n) of projection slot i as a dense
// vector. Spans inside one cached block are zero-copy views (except the
// int64→int32 narrowing of date columns); spans crossing blocks stitch.
func (s *Scanner) ColVec(i int, start int64, n int) (*vector.Vec, error) {
	cb, err := s.ensureBlock(i, start)
	if err != nil {
		return nil, err
	}
	if start+int64(n) <= cb.hi {
		lo := int(start - cb.lo)
		hi := lo + n
		switch s.kinds[i] {
		case vector.Float64:
			return vector.FromFloat64(cb.data.f64[lo:hi]), nil
		case vector.String:
			if s.codeExec && cb.data.pd != nil {
				codes, err := s.blockCodes(cb)
				if err != nil {
					return nil, err
				}
				return vector.FromDictCodes(codes[lo:hi], cb.data.pd.Dict), nil
			}
			str, err := s.blockStrings(cb)
			if err != nil {
				return nil, err
			}
			return vector.FromStrCol(str.Slice(lo, hi)), nil
		case vector.Int32:
			out := make([]int32, n)
			for j, v := range cb.data.i64[lo:hi] {
				out[j] = int32(v)
			}
			return vector.FromInt32(out), nil
		default:
			return vector.FromInt64(cb.data.i64[lo:hi]), nil
		}
	}
	// Rare path: the span crosses a block boundary of this column.
	out := vector.New(s.kinds[i], n)
	for row := start; row < start+int64(n); {
		cb, err := s.ensureBlock(i, row)
		if err != nil {
			return nil, err
		}
		take := cb.hi - row
		if rem := start + int64(n) - row; rem < take {
			take = rem
		}
		lo := int(row - cb.lo)
		hi := lo + int(take)
		switch s.kinds[i] {
		case vector.Float64:
			for _, v := range cb.data.f64[lo:hi] {
				out.AppendFloat64(v)
			}
		case vector.String:
			str, err := s.blockStrings(cb)
			if err != nil {
				return nil, err
			}
			out.AppendRange(vector.FromStrCol(*str), lo, hi)
		case vector.Int32:
			for _, v := range cb.data.i64[lo:hi] {
				out.AppendInt32(int32(v))
			}
		default:
			for _, v := range cb.data.i64[lo:hi] {
				out.AppendInt64(v)
			}
		}
		row += take
	}
	return out, nil
}

// blockCodes returns the dictionary-code stream of a code-form cached
// block, unpacking (and charging) it on first use by this scanner.
func (s *Scanner) blockCodes(cb *cachedBlock) ([]uint32, error) {
	codes, err := cb.data.pd.Codes()
	if err != nil {
		return nil, err
	}
	if !cb.codesCharged {
		cb.codesCharged = true
		s.stats.BytesDecoded += int64(cb.data.pd.CodeBytes())
	}
	return codes, nil
}

// blockStrings returns value-form strings for a cached string block,
// materializing a code-form block on first use. The materialization is
// scanner-local (cachedBlock.data is a copy), so the shared cache keeps the
// compact code form.
func (s *Scanner) blockStrings(cb *cachedBlock) (*compress.StrCol, error) {
	if cb.data.str.Len() > 0 || cb.data.pd == nil {
		return &cb.data.str, nil
	}
	str, err := cb.data.pd.Materialize()
	if err != nil {
		return nil, err
	}
	if !cb.codesCharged {
		cb.codesCharged = true
		s.stats.BytesDecoded += int64(cb.data.pd.CodeBytes())
	}
	s.stats.BytesMaterialized += strColBytes(&str)
	cb.data.str = str
	return &cb.data.str, nil
}

// Close releases the scanner's cached decoded blocks and terminates the
// scan: a subsequent Next reports end-of-scan.
func (s *Scanner) Close() {
	s.cache = nil
	s.ri = len(s.ranges)
}

// ensureBlock loads (and caches) the block of requested column i covering
// row.
func (s *Scanner) ensureBlock(i int, row int64) (*cachedBlock, error) {
	cb := &s.cache[i]
	if row >= cb.lo && row < cb.hi {
		return cb, nil
	}
	b, err := s.blockFor(i, row)
	if err != nil {
		return nil, err
	}
	return s.loadBlock(i, b)
}

// blockFor binary-searches the block directory of slot i for the block
// covering row. It touches metadata only — no IO, no decode.
func (s *Scanner) blockFor(i int, row int64) (*BlockMeta, error) {
	c := &s.meta.Cols[s.cols[i]]
	lo, hi := 0, len(c.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Blocks[mid].RowStart+int64(c.Blocks[mid].Rows) <= row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(c.Blocks) || c.Blocks[lo].RowStart > row {
		return nil, fmt.Errorf("colstore: row %d not covered by column %s", row, c.Name)
	}
	return &c.Blocks[lo], nil
}

func (s *Scanner) keyOf(b *BlockMeta) blockKey {
	if b.Chunk >= 0 {
		return blockKey{s.meta.ChunkPath(b.Chunk), int64(b.Slot) * int64(s.meta.Format.BlockSize), b.Bytes}
	}
	return blockKey{s.meta.PartialPath(s.meta.PartialGen), int64(b.Slot), b.Bytes}
}

// loadBlock fetches and decodes one whole block into slot i's cache, via
// the shared cache when attached. A PDICT string block is only opened: its
// dictionary is parsed and charged as decoded, while the packed code stream
// stays compressed until blockCodes/blockStrings first needs it (and blocks
// pruned through SpanDict never do).
func (s *Scanner) loadBlock(i int, b *BlockMeta) (*cachedBlock, error) {
	cb := &s.cache[i]
	kind := s.kinds[i]
	var key blockKey
	if s.bc != nil {
		key = s.keyOf(b)
		if d, ok := s.bc.get(key); ok {
			// Cache hits charge nothing: the decode happened elsewhere, and
			// hitBytes keeps them out of this scan's skipped bytes.
			s.stats.CacheHits++
			s.hitBytes += int64(b.Bytes)
			cb.lo, cb.hi, cb.data, cb.codesCharged = b.RowStart, b.RowStart+int64(b.Rows), d, true
			return cb, nil
		}
	}
	payload, err := readPayloadInto(s.fs, s.meta, s.node, *b, s.payloadBuf)
	if err != nil {
		return nil, err
	}
	s.payloadBuf = payload
	d, err := decodeBlockScan(kind, payload, &s.scratch)
	if err != nil {
		return nil, err
	}
	s.stats.BlocksRead++
	if d.pd != nil {
		s.stats.BytesDecoded += int64(d.pd.DictBytes())
	} else {
		s.stats.BytesDecoded += int64(b.Bytes)
	}
	s.stats.BytesMaterialized += valueBytes(kind, d)
	if got := d.length(kind); got != b.Rows {
		return nil, fmt.Errorf("colstore: block of %s decoded %d rows, meta says %d", s.meta.Cols[s.cols[i]].Name, got, b.Rows)
	}
	cb.lo, cb.hi, cb.data, cb.codesCharged = b.RowStart, b.RowStart+int64(b.Rows), d, false
	if s.bc != nil {
		s.bc.put(key, d)
	}
	return cb, nil
}

// SpanDict returns the dictionary handle of the code-form block covering
// row of string slot i, or nil when the block is value-form (raw+LZ
// strings) or code execution is off. Opening the block parses only its
// dictionary, so a scan that prunes on the result — the pushed literal is
// absent — never touches the packed code stream.
func (s *Scanner) SpanDict(i int, row int64) (*compress.StrDict, error) {
	if !s.codeExec || s.kinds[i] != vector.String {
		return nil, nil
	}
	cb, err := s.ensureBlock(i, row)
	if err != nil {
		return nil, err
	}
	if cb.data.pd == nil {
		return nil, nil
	}
	return cb.data.pd.Dict, nil
}

// SpanMeta returns the directory entry — row range and MinMax summary — of
// the block covering row of slot i, nil when no block does. It reads the
// block directory only: no IO, no decode.
func (s *Scanner) SpanMeta(i int, row int64) *BlockMeta {
	b, err := s.blockFor(i, row)
	if err != nil {
		return nil
	}
	return b
}
