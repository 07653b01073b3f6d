// Package mpi simulates the message-passing transport underneath the
// distributed exchange operators (§5, Figure 4 of the paper): the PAX-like
// message layout a batch crosses nodes in (AppendBatch/DecodeBatch; ≥256 KB
// messages for good throughput in the paper, configurable here) and the
// Network's traffic accounting for the network cost model — serialized bytes
// and messages between nodes, and the intra-node optimization of passing
// batch pointers instead of serialized buffers ("for intra-node
// communication we only send pointers to sender-side buffers"). Messages
// travel on the consumer channels of exec's exchange runtime.
//
// Lifetimes: AppendBatch copies the batch into the caller's buffer, so the
// sender may refill its batch as soon as it returns. DecodeBatch's result
// shares no memory with its input, so the wire buffer can go back to its
// exchange's free list right after the decode. Each decoded string column is
// one arena that all its values are substrings of, and its offsets: a
// retained string keeps alive at most its own message's column.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"vectorh/internal/compress"
	"vectorh/internal/vector"
)

// DefaultMsgBytes is the paper's minimum message size for good MPI
// throughput.
const DefaultMsgBytes = 256 << 10

// Stats aggregates transport traffic.
type Stats struct {
	RemoteBytes   int64 // serialized bytes crossing node boundaries
	RemoteMsgs    int64
	LocalHandoffs int64 // intra-node pointer passes (no serialization)
}

// Network is the cluster-wide transport fabric: it carries the accounting
// shared by every exchange sender.
type Network struct {
	nodes       int
	remoteBytes atomic.Int64
	remoteMsgs  atomic.Int64
	localPasses atomic.Int64
}

// NewNetwork returns a fabric connecting n nodes.
func NewNetwork(n int) *Network { return &Network{nodes: n} }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.nodes }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		RemoteBytes:   n.remoteBytes.Load(),
		RemoteMsgs:    n.remoteMsgs.Load(),
		LocalHandoffs: n.localPasses.Load(),
	}
}

// Reset zeroes the counters.
func (n *Network) Reset() {
	n.remoteBytes.Store(0)
	n.remoteMsgs.Store(0)
	n.localPasses.Store(0)
}

// Handoff counts one intra-node pass of a batch pointer.
func (n *Network) Handoff() { n.localPasses.Add(1) }

// Remote counts one message of the given encoded size sent to another node.
func (n *Network) Remote(bytes int) {
	n.remoteBytes.Add(int64(bytes))
	n.remoteMsgs.Add(1)
}

// EncodeBatch serializes a batch into a new buffer: AppendBatch(nil, b).
func EncodeBatch(b *vector.Batch) []byte { return AppendBatch(nil, b) }

// AppendBatch appends b to dst in a PAX-like layout: per column a kind byte
// and the packed values after one column count and one row count, "such
// that Receivers can return vectors directly out of these buffers". It sizes
// the message exactly first, so it grows dst at most once and not at all when
// cap(dst) already holds it; only a selection or a dictionary-coded string
// column in b costs an allocation, to materialize it.
func AppendBatch(dst []byte, b *vector.Batch) []byte {
	c := b.Compact()
	out := dst
	if need := len(dst) + encodedLen(c); need > cap(dst) {
		out = make([]byte, len(dst), need)
		copy(out, dst)
	}
	out = binary.AppendUvarint(out, uint64(len(c.Vecs)))
	out = binary.AppendUvarint(out, uint64(c.Len()))
	for _, v := range c.Vecs {
		out = append(out, byte(v.Kind()))
		switch v.Kind() {
		case vector.Int64:
			for _, x := range v.Int64s() {
				out = binary.LittleEndian.AppendUint64(out, uint64(x))
			}
		case vector.Int32:
			for _, x := range v.Int32s() {
				out = binary.LittleEndian.AppendUint32(out, uint32(x))
			}
		case vector.Float64:
			for _, x := range v.Float64s() {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
			}
		case vector.String:
			for i := range v.Len() {
				s := v.StrAt(i)
				out = binary.AppendUvarint(out, uint64(len(s)))
				out = append(out, s...)
			}
		case vector.Bool:
			for _, x := range v.Bools() {
				if x {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		}
	}
	return out
}

// encodedLen is the exact number of bytes AppendBatch writes for the dense
// batch c.
func encodedLen(c *vector.Batch) int {
	n := uvarintLen(uint64(len(c.Vecs))) + uvarintLen(uint64(c.Len()))
	for _, v := range c.Vecs {
		n++
		switch v.Kind() {
		case vector.String:
			for i := range v.Len() {
				l := len(v.StrAt(i))
				n += uvarintLen(uint64(l)) + l
			}
		default:
			n += v.Len() * v.Kind().Width()
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeBatch inverts AppendBatch. The batch it returns shares no memory
// with data, so the caller may reuse data at once; a string column costs two
// allocations, an arena for all its bytes and its offsets. It
// sizes nothing from a header before checking that the remaining bytes can
// hold it — every column takes at least its kind byte and every value at
// least one byte — so hostile bytes cost an error, never an allocation out of
// proportion to len(data).
func DecodeBatch(data []byte) (*vector.Batch, error) {
	b, _, err := decodeBatch(data)
	return b, err
}

// DecodeBatches decodes batches that AppendBatch appended back to back, up to
// the last byte of data, with DecodeBatch's guarantees for each.
func DecodeBatches(data []byte) ([]*vector.Batch, error) {
	var out []*vector.Batch
	for len(data) > 0 {
		b, rest, err := decodeBatch(data)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		data = rest
	}
	return out, nil
}

// decodeBatch decodes one batch from the front of data and returns the bytes
// after it.
func decodeBatch(data []byte) (*vector.Batch, []byte, error) {
	nc, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("mpi: bad batch header")
	}
	data = data[sz:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("mpi: bad batch header")
	}
	data = data[sz:]
	if nc > uint64(len(data)) {
		return nil, nil, fmt.Errorf("mpi: batch header claims %d columns in %d bytes", nc, len(data))
	}
	b := &vector.Batch{Vecs: make([]*vector.Vec, nc)}
	for ci := uint64(0); ci < nc; ci++ {
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("mpi: truncated batch")
		}
		kind := vector.Kind(data[0])
		data = data[1:]
		if n > uint64(len(data)) {
			return nil, nil, fmt.Errorf("mpi: batch header claims %d rows in %d bytes", n, len(data))
		}
		switch kind {
		case vector.Int64:
			if uint64(len(data)) < n*8 {
				return nil, nil, fmt.Errorf("mpi: truncated int64 column")
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
			data = data[n*8:]
			b.Vecs[ci] = vector.FromInt64(vals)
		case vector.Int32:
			if uint64(len(data)) < n*4 {
				return nil, nil, fmt.Errorf("mpi: truncated int32 column")
			}
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
			}
			data = data[n*4:]
			b.Vecs[ci] = vector.FromInt32(vals)
		case vector.Float64:
			if uint64(len(data)) < n*8 {
				return nil, nil, fmt.Errorf("mpi: truncated float column")
			}
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			data = data[n*8:]
			b.Vecs[ci] = vector.FromFloat64(vals)
		case vector.String:
			vals, rest, err := compress.DecodeLenPrefixed(data, n)
			if err != nil {
				return nil, nil, fmt.Errorf("mpi: string column: %w", err)
			}
			data = rest
			b.Vecs[ci] = vector.FromStrCol(vals)
		case vector.Bool:
			if uint64(len(data)) < n {
				return nil, nil, fmt.Errorf("mpi: truncated bool column")
			}
			vals := make([]bool, n)
			for i := range vals {
				vals[i] = data[i] != 0
			}
			data = data[n:]
			b.Vecs[ci] = vector.FromBool(vals)
		default:
			return nil, nil, fmt.Errorf("mpi: unknown column kind %d", kind)
		}
	}
	return b, data, nil
}
