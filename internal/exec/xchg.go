package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// The exchange operator family (§5, after Graefe's Volcano): an exchange
// never modifies data, it only redistributes streams between producer and
// consumer threads, encapsulating parallelism so all other operators stay
// parallelism-unaware. This file is the one exchange runtime: the local Xchg
// operators below and the distributed DXchg operators of package mpp are
// routes over it. Producers run in goroutines started at the first port
// Open, each with its own Route.
//
// Every exchange carries the query's context: producers check it once per
// batch, so a cancelled or timed-out query stops its producer goroutines
// promptly instead of letting them drain their inputs into dead channels. An
// error that ends a producer — its own, its route's, or the cancellation —
// reaches every consumer port as the same error value.

// chanDepth is the number of items a consumer stream's channel holds. It is
// what lets producers run ahead of a consumer busy with the previous batch;
// for a DXchg, whose items are MsgBytes send buffers, it is the
// double-buffering of the paper's Figure 4 with slack for the several
// senders that share each consumer stream.
const chanDepth = 4

// item is one unit on an exchange channel: a batch handed over by pointer, a
// batch encoded for another node (decoded by the consumer port), or the
// error that ended a producer.
type item struct {
	b    *vector.Batch
	wire []byte
	err  error
}

// xchgCore runs producers and fans their output to consumer channels through
// per-producer routes. It owns every wire buffer of the exchange: SendEncoded
// takes one from the free list, the consumer port returns it after decoding,
// and the list goes with the exchange.
type xchgCore struct {
	ctx       context.Context
	producers []Operator
	outs      []chan item
	newRoute  func(producer int) (Route, error)
	quit      chan struct{}
	openPorts atomic.Int32
	startOnce sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
	wireMu    sync.Mutex
	freeWire  [][]byte
}

// Route delivers one producer's output to the consumer streams: the exchange
// calls it with every batch the producer returns and once more with nil at
// end of input, so a route that buffers can flush. A route runs on its
// producer's goroutine only and may keep per-producer state.
type Route func(b *vector.Batch, out Outs) error

// Outs is a route's handle on the consumer streams. A send blocks while the
// stream's channel is full and fails once the exchange has stopped; a route
// returns that failure as it is.
type Outs struct{ x *xchgCore }

// Send hands b to consumer stream i by pointer.
func (o Outs) Send(i int, b *vector.Batch) error { return o.x.send(i, item{b: b}) }

// SendEncoded encodes b with mpi.AppendBatch into a wire buffer from the
// exchange's free list and hands that to consumer stream i, whose port
// decodes it and puts the buffer back on the list. It returns the encoded
// size; b is free for reuse once it returns.
func (o Outs) SendEncoded(i int, b *vector.Batch) (int, error) {
	wire := mpi.AppendBatch(o.x.getWire(), b)
	return len(wire), o.x.send(i, item{wire: wire})
}

// NewExchange returns the consumer ports of an exchange over producers.
// Nothing runs until the first port Open, which starts one goroutine per
// producer with its own route from newRoute(i), i indexing producers. The
// exchange stops once every port has closed or the context is cancelled.
func NewExchange(ctx context.Context, producers []Operator, consumers int, newRoute func(producer int) (Route, error)) []Operator {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &xchgCore{ctx: ctx, producers: producers, newRoute: newRoute, quit: make(chan struct{})}
	x.openPorts.Store(int32(consumers))
	x.outs = make([]chan item, consumers)
	ports := make([]Operator, consumers)
	for i := range x.outs {
		x.outs[i] = make(chan item, chanDepth)
		ports[i] = &port{x: x, idx: i}
	}
	return ports
}

func (x *xchgCore) start() {
	x.startOnce.Do(func() {
		if done := x.ctx.Done(); done != nil {
			// Tie the exchange lifetime to the query context: cancellation
			// releases producers blocked on full consumer channels even if
			// no consumer ever calls Close.
			go func() {
				select {
				case <-done:
					x.stop()
				case <-x.quit:
				}
			}()
		}
		x.wg.Add(len(x.producers))
		for i, p := range x.producers {
			go func() {
				defer x.wg.Done()
				if err := x.produce(i, p); err != nil && err != errQuit {
					x.fanErr(err)
				}
			}()
		}
		go func() {
			x.wg.Wait()
			for _, ch := range x.outs {
				close(ch)
			}
		}()
	})
}

// produce runs producer i to the end of its input through its own route.
func (x *xchgCore) produce(i int, p Operator) error {
	route, err := x.newRoute(i)
	if err != nil {
		return err
	}
	if err := p.Open(); err != nil {
		return err
	}
	defer p.Close()
	out := Outs{x}
	for {
		if err := x.ctx.Err(); err != nil {
			return fmt.Errorf("exec: exchange producer canceled: %w", context.Cause(x.ctx))
		}
		b, err := p.Next()
		if err != nil {
			return err
		}
		if err := route(b, out); err != nil || b == nil {
			return err
		}
	}
}

func (x *xchgCore) send(i int, it item) error {
	select {
	case x.outs[i] <- it:
		return nil
	case <-x.quit:
		return errQuit
	}
}

// getWire returns an empty wire buffer, recycled when the free list has one.
func (x *xchgCore) getWire() []byte {
	x.wireMu.Lock()
	defer x.wireMu.Unlock()
	n := len(x.freeWire)
	if n == 0 {
		return nil
	}
	w := x.freeWire[n-1]
	x.freeWire[n-1] = nil
	x.freeWire = x.freeWire[:n-1]
	return w[:0]
}

// putWire returns a decoded wire buffer to the free list. Under
// -tags vectorh_debug it poisons the bytes first, so a decoder that starts
// aliasing its input returns corrupt batches in the debug suite.
func (x *xchgCore) putWire(w []byte) {
	if vector.DebugAsserts {
		for i := range w {
			w[i] = 0xA5
		}
	}
	x.wireMu.Lock()
	x.freeWire = append(x.freeWire, w)
	x.wireMu.Unlock()
}

func (x *xchgCore) fanErr(err error) {
	for i := range x.outs {
		if x.send(i, item{err: err}) != nil {
			return
		}
	}
}

func (x *xchgCore) stop() {
	x.closeOnce.Do(func() { close(x.quit) })
}

// port is one consumer endpoint of an exchange.
type port struct {
	x    *xchgCore
	idx  int
	once sync.Once
}

// Open implements Operator.
func (p *port) Open() error { p.x.start(); return nil }

// Next implements Operator.
func (p *port) Next() (*vector.Batch, error) {
	it, ok := <-p.x.outs[p.idx]
	if !ok {
		return nil, nil
	}
	if it.wire != nil {
		b, err := mpi.DecodeBatch(it.wire)
		p.x.putWire(it.wire)
		return b, err
	}
	return it.b, it.err
}

// Close implements Operator. The exchange stops once every consumer port
// has closed (stopping on the first close would strand batches buffered for
// sibling streams); a cancelled query context stops it immediately.
func (p *port) Close() error {
	p.once.Do(func() {
		if p.x.openPorts.Add(-1) == 0 {
			p.x.stop()
		}
	})
	return nil
}

type quitError struct{}

func (quitError) Error() string { return "exec: exchange canceled" }

var errQuit = quitError{}

// stateless adapts a routing function without per-producer state or
// buffering.
func stateless(route func(b *vector.Batch, out Outs) error) func(int) (Route, error) {
	return func(int) (Route, error) {
		return func(b *vector.Batch, out Outs) error {
			if b == nil {
				return nil
			}
			return route(b, out)
		}, nil
	}
}

// XchgUnion merges n producer streams into one consumer stream.
func XchgUnion(ctx context.Context, producers []Operator) Operator {
	return NewExchange(ctx, producers, 1, stateless(func(b *vector.Batch, out Outs) error {
		return out.Send(0, b)
	}))[0]
}

// XchgHashSplit hash-partitions n producer streams into m consumer streams
// on the given key expressions. It returns the m consumer ports.
func XchgHashSplit(ctx context.Context, producers []Operator, keys []expr.Expr, m int) []Operator {
	return NewExchange(ctx, producers, m, func(int) (Route, error) {
		hasher, err := NewRowHasher(keys)
		if err != nil {
			return nil, err
		}
		return func(b *vector.Batch, out Outs) error {
			if b == nil {
				return nil
			}
			// Fresh lists every batch: each consumer keeps its selection
			// with the batch past the next send.
			sels := make([][]int32, m)
			if err := hasher.Split(b, sels); err != nil {
				return err
			}
			for d, sel := range sels {
				if len(sel) == 0 {
					continue
				}
				if err := out.Send(d, &vector.Batch{Vecs: b.Vecs, Sel: sel}); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
}

// RowHasher computes a 64-bit hash of key expressions for every live row of
// a stream's batches. It delegates to the vector hash kernels — the same
// column-wise functions the hash join and aggregation tables use — so joins,
// group-by, local exchanges and distributed exchanges all agree on one hash
// function. It owns the compiled key program and the hash buffer, so each
// exchange sender needs its own and hashes without allocating.
type RowHasher struct {
	prog   *expr.Program
	keys   []*vector.Vec
	hashes []uint64
}

// NewRowHasher compiles the key expressions for one stream.
func NewRowHasher(keys []expr.Expr) (*RowHasher, error) {
	prog, err := expr.Compile(keys...)
	if err != nil {
		return nil, err
	}
	return &RowHasher{prog: prog, keys: make([]*vector.Vec, len(keys))}, nil
}

// Hash returns one hash per live row of b, valid until the next call.
func (h *RowHasher) Hash(b *vector.Batch) ([]uint64, error) {
	if err := h.prog.RunInto(b, h.keys); err != nil {
		return nil, err
	}
	n := b.Len()
	if cap(h.hashes) < n {
		h.hashes = make([]uint64, n)
	}
	vector.HashCols(h.hashes[:n], h.keys)
	return h.hashes[:n], nil
}

// Split is the row grouping of every hash-partitioning exchange: it truncates
// each list of dests, then appends the physical position of every live row
// of b to dests[hash % len(dests)]. A caller that hands the lists on with b
// passes fresh ones each time; one that copies the rows out may reuse them.
func (h *RowHasher) Split(b *vector.Batch, dests [][]int32) error {
	hashes, err := h.Hash(b)
	if err != nil {
		return err
	}
	for d := range dests {
		dests[d] = dests[d][:0]
	}
	m := uint64(len(dests))
	for r, hv := range hashes {
		phys := int32(r)
		if b.Sel != nil {
			phys = b.Sel[r]
		}
		d := hv % m
		dests[d] = append(dests[d], phys)
	}
	return nil
}
