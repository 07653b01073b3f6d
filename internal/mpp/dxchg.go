// Package mpp implements the distributed exchange (DXchg) operators of §5,
// DXchgHashSplit, DXchgUnion and DXchgBroadcast. They are routes over exec's
// exchange runtime — its producer goroutines, consumer ports, start, stop,
// cancellation and error delivery are those of the local Xchg operators —
// and add what crossing nodes takes: every sender buffers rows per
// destination stream until MsgBytes (the paper's ≥256 KB MPI messages),
// hands a full buffer to a consumer on its own node as a pointer and to one
// on another node encoded by exec.Outs.SendEncoded, and counts both in the
// mpi.Network. A hash split partitions straight to every consumer stream (the
// paper's thread-to-thread fan-out); a union or a broadcast keeps one buffer
// per sender and ships it to every consumer stream, encoded once for each
// one on another node.
//
// Lifetimes: a send buffer bound for another node is reused after it ships,
// since the encode copied its rows into a wire buffer that exec's runtime
// owns (the consumer port returns it to the exchange's free list after
// decoding). A buffer handed to a consumer on the sender's node changes
// owner, so the sender starts a new one, sized to the message it just
// shipped plus a quarter.
package mpp

import (
	"context"
	"fmt"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// Config parameterizes one distributed exchange.
type Config struct {
	Net      *mpi.Network
	MsgBytes int             // flush threshold; default mpi.DefaultMsgBytes
	Ctx      context.Context // query context; senders check it per batch
}

// DXchgHashSplit hash-partitions producer streams (grouped by node) across
// consumer threads on every node. It returns consumer ports indexed
// [node][thread], or an error for a topology it cannot route.
//
// Routing runs on exec.RowHasher — the single hash definition shared with
// local exchange partitioning and the join/aggregation hash tables. Every
// sender compiles its own from keys, so steady-state routing is
// allocation-free and nothing mutable is shared between senders.
func DXchgHashSplit(cfg Config, producers [][]exec.Operator, keys []expr.Expr, consumersPerNode []int) ([][]exec.Operator, error) {
	ports, err := dxchg(cfg, producers, keys, consumersPerNode)
	if err != nil {
		return nil, err
	}
	out := make([][]exec.Operator, len(consumersPerNode))
	s := 0
	for n, c := range consumersPerNode {
		out[n] = ports[s : s+c : s+c]
		s += c
	}
	return out, nil
}

// DXchgUnion funnels every producer stream to a single consumer stream on
// the given node (the 180:1 DXchgUnion of the Appendix Q1 plan).
func DXchgUnion(cfg Config, producers [][]exec.Operator, consumerNode int) (exec.Operator, error) {
	if consumerNode < 0 || consumerNode >= cfg.Net.Nodes() {
		return nil, fmt.Errorf("mpp: DXchgUnion cannot route to node %d", consumerNode)
	}
	perNode := make([]int, consumerNode+1)
	perNode[consumerNode] = 1
	ports, err := dxchg(cfg, producers, nil, perNode)
	if err != nil {
		return nil, err
	}
	return ports[0], nil
}

// DXchgBroadcast replicates every producer row to one consumer stream on
// each node n with toNode[n] set (a join build side replicated at run time).
// It returns ports indexed by node, none on the nodes left out: a node that
// never drains a port must not be sent to, or the senders block on it.
func DXchgBroadcast(cfg Config, producers [][]exec.Operator, toNode []bool) ([][]exec.Operator, error) {
	perNode := make([]int, len(toNode))
	for n, to := range toNode {
		if to {
			perNode[n] = 1
		}
	}
	ports, err := dxchg(cfg, producers, nil, perNode)
	if err != nil {
		return nil, err
	}
	out := make([][]exec.Operator, len(toNode))
	for n, to := range toNode {
		if to {
			out[n], ports = ports[:1:1], ports[1:]
		}
	}
	return out, nil
}

// dxchg builds a distributed exchange over exec's runtime: one sender route
// per producer, one port per consumer stream in node order. Without keys
// every consumer stream gets every row, and a node holds at most one of them.
func dxchg(cfg Config, producers [][]exec.Operator, keys []expr.Expr, consumersPerNode []int) ([]exec.Operator, error) {
	if len(producers) > cfg.Net.Nodes() || len(consumersPerNode) > cfg.Net.Nodes() {
		return nil, fmt.Errorf("mpp: %d producer and %d consumer nodes do not fit the network", len(producers), len(consumersPerNode))
	}
	var streamNode []int
	for n, c := range consumersPerNode {
		if c < 0 {
			return nil, fmt.Errorf("mpp: %d consumer streams on node %d", c, n)
		}
		for range c {
			streamNode = append(streamNode, n)
		}
	}
	if len(streamNode) == 0 {
		return nil, fmt.Errorf("mpp: no consumer stream to route to")
	}
	var flat []exec.Operator
	var senderNode []int
	for n, ps := range producers {
		for _, p := range ps {
			flat = append(flat, p)
			senderNode = append(senderNode, n)
		}
	}
	msgBytes := cfg.MsgBytes
	if msgBytes <= 0 {
		msgBytes = mpi.DefaultMsgBytes
	}
	return exec.NewExchange(cfg.Ctx, flat, len(streamNode), func(i int) (exec.Route, error) {
		s := &sender{net: cfg.Net, node: senderNode[i], streamNode: streamNode, msgBytes: msgBytes,
			bufs: make([]sendBuffer, 1)}
		if keys != nil {
			var err error
			if s.hasher, err = exec.NewRowHasher(keys); err != nil {
				return nil, err
			}
			s.sels = make([][]int32, len(streamNode))
			s.bufs = make([]sendBuffer, len(streamNode))
		}
		return s.route, nil
	}), nil
}

// sender is one producer's side of a distributed exchange.
type sender struct {
	net        *mpi.Network
	node       int   // the producer's node
	streamNode []int // consumer stream -> node
	msgBytes   int
	hasher     *exec.RowHasher // nil: every row goes to every stream
	sels       [][]int32       // rows per stream, reused: send buffers copy them
	bufs       []sendBuffer    // per stream with a hasher, else the one for all
}

// route buffers b's rows per destination stream and ships a buffer once it
// holds MsgBytes; at end of input (b == nil) it ships what is left.
func (s *sender) route(b *vector.Batch, out exec.Outs) error {
	if b == nil {
		for d := range s.bufs {
			if err := s.ship(d, out); err != nil {
				return err
			}
		}
		return nil
	}
	if s.hasher == nil {
		return s.add(0, b, b.Sel, out)
	}
	if err := s.hasher.Split(b, s.sels); err != nil {
		return err
	}
	for d, sel := range s.sels {
		if len(sel) > 0 {
			if err := s.add(d, b, sel, out); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *sender) add(d int, b *vector.Batch, sel []int32, out exec.Outs) error {
	s.bufs[d].append(b, sel)
	if s.bufs[d].bytes < s.msgBytes {
		return nil
	}
	return s.ship(d, out)
}

// ship hands buffer d to its streams — stream d with a hasher, every stream
// without: encoded to each stream on another node, which copies it, then by
// pointer to the one on the sender's node, which gives the buffer away. A
// buffer nothing took away is emptied and refilled.
func (s *sender) ship(d int, out exec.Outs) error {
	sb := &s.bufs[d]
	if sb.rows() == 0 {
		return nil
	}
	local := -1
	for dst, node := range s.streamNode {
		if s.hasher != nil && dst != d {
			continue
		}
		if node == s.node {
			local = dst
			continue
		}
		n, err := out.SendEncoded(dst, &vector.Batch{Vecs: sb.vecs})
		s.net.Remote(n)
		if err != nil {
			return err
		}
	}
	if local >= 0 {
		s.net.Handoff()
		return out.Send(local, sb.handOff())
	}
	sb.reset()
	return nil
}

// sendBuffer accumulates the rows bound for one consumer stream.
type sendBuffer struct {
	vecs  []*vector.Vec
	bytes int // what vecs hold (Vec.Bytes)
	next  int // row capacity of new vectors: the last handoff's rows plus a quarter, at least 256
}

// append copies rows sel of b — every row when sel is nil — with one bulk
// append per column, and counts what the buffer then holds: its vectors
// store strings, not a column's dictionary codes, so a coded column counts
// at its values' bytes.
func (sb *sendBuffer) append(b *vector.Batch, sel []int32) {
	if sb.vecs == nil {
		capHint := max(sb.next, 256)
		for _, v := range b.Vecs {
			sb.vecs = append(sb.vecs, vector.New(v.Kind(), capHint))
		}
	}
	sb.bytes = 0
	for i, v := range b.Vecs {
		if sel == nil {
			sb.vecs[i].AppendRange(v, 0, v.Len())
		} else {
			sb.vecs[i].AppendGather(v, sel)
		}
		sb.bytes += sb.vecs[i].Bytes()
	}
}

func (sb *sendBuffer) rows() int {
	if sb.vecs == nil {
		return 0
	}
	return sb.vecs[0].Len()
}

// handOff gives the buffered rows away as a batch; the next append starts
// new vectors sized to this message plus a quarter.
func (sb *sendBuffer) handOff() *vector.Batch {
	n := sb.rows()
	b := &vector.Batch{Vecs: sb.vecs}
	sb.vecs, sb.bytes, sb.next = nil, 0, n+n/4
	return b
}

// reset empties the buffer after its rows were copied out, keeping the
// vectors and their capacity.
func (sb *sendBuffer) reset() {
	for _, v := range sb.vecs {
		v.Reset()
	}
	sb.bytes = 0
}
