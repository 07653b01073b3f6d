// Package mpi simulates the message-passing transport underneath the
// distributed exchange operators (§5, Figure 4 of the paper): the PAX-like
// message layout a batch crosses nodes in (EncodeBatch/DecodeBatch; ≥256 KB
// messages for good throughput in the paper, configurable here) and the
// Network's traffic accounting for the network cost model — serialized bytes
// and messages between nodes, and the intra-node optimization of passing
// batch pointers instead of serialized buffers ("for intra-node
// communication we only send pointers to sender-side buffers"). Messages
// travel on the consumer channels of exec's exchange runtime.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

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

// Encode serializes a batch bound for another node and counts it as one
// remote message.
func (n *Network) Encode(b *vector.Batch) []byte {
	data := EncodeBatch(b)
	n.remoteBytes.Add(int64(len(data)))
	n.remoteMsgs.Add(1)
	return data
}

// EncodeBatch serializes a batch in a PAX-like layout: per column a kind
// byte, a row count and the packed values, "such that Receivers can return
// vectors directly out of these buffers".
func EncodeBatch(b *vector.Batch) []byte {
	c := b.Compact()
	out := binary.AppendUvarint(nil, uint64(len(c.Vecs)))
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
			for _, s := range v.Strings() {
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

// DecodeBatch inverts EncodeBatch. It sizes nothing from a header before
// checking that the remaining bytes can hold it — every column takes at
// least its kind byte and every value at least one byte — so hostile bytes
// cost an error, never an allocation out of proportion to len(data).
func DecodeBatch(data []byte) (*vector.Batch, error) {
	nc, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("mpi: bad batch header")
	}
	data = data[sz:]
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, fmt.Errorf("mpi: bad batch header")
	}
	data = data[sz:]
	if nc > uint64(len(data)) {
		return nil, fmt.Errorf("mpi: batch header claims %d columns in %d bytes", nc, len(data))
	}
	b := &vector.Batch{Vecs: make([]*vector.Vec, nc)}
	for ci := uint64(0); ci < nc; ci++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("mpi: truncated batch")
		}
		kind := vector.Kind(data[0])
		data = data[1:]
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("mpi: batch header claims %d rows in %d bytes", n, len(data))
		}
		switch kind {
		case vector.Int64:
			if uint64(len(data)) < n*8 {
				return nil, fmt.Errorf("mpi: truncated int64 column")
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
			data = data[n*8:]
			b.Vecs[ci] = vector.FromInt64(vals)
		case vector.Int32:
			if uint64(len(data)) < n*4 {
				return nil, fmt.Errorf("mpi: truncated int32 column")
			}
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
			}
			data = data[n*4:]
			b.Vecs[ci] = vector.FromInt32(vals)
		case vector.Float64:
			if uint64(len(data)) < n*8 {
				return nil, fmt.Errorf("mpi: truncated float column")
			}
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			data = data[n*8:]
			b.Vecs[ci] = vector.FromFloat64(vals)
		case vector.String:
			vals := make([]string, n)
			for i := range vals {
				l, sz := binary.Uvarint(data)
				if sz <= 0 || uint64(len(data)-sz) < l {
					return nil, fmt.Errorf("mpi: truncated string column")
				}
				data = data[sz:]
				vals[i] = string(data[:l])
				data = data[l:]
			}
			b.Vecs[ci] = vector.FromString(vals)
		case vector.Bool:
			if uint64(len(data)) < n {
				return nil, fmt.Errorf("mpi: truncated bool column")
			}
			vals := make([]bool, n)
			for i := range vals {
				vals[i] = data[i] != 0
			}
			data = data[n:]
			b.Vecs[ci] = vector.FromBool(vals)
		default:
			return nil, fmt.Errorf("mpi: unknown column kind %d", kind)
		}
	}
	return b, nil
}
