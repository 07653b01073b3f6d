package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// The local Xchg operator family (§5, after Graefe's Volcano): an Xchg never
// modifies data, it only redistributes streams between producer and consumer
// threads, encapsulating parallelism so all other operators stay
// parallelism-unaware. Producers run in goroutines started at Open.
//
// Every exchange carries the query's context: producers check it once per
// batch, so a cancelled or timed-out query stops its producer goroutines
// promptly instead of letting them drain their inputs into dead channels.

// item is one unit on an exchange channel.
type item struct {
	b   *vector.Batch
	err error
}

// xchgCore runs producers and fans their output to consumer channels using
// a routing function.
type xchgCore struct {
	ctx       context.Context
	producers []Operator
	outs      []chan item
	newRoute  func() (routeFunc, error) // called once per producer goroutine
	quit      chan struct{}
	openPorts atomic.Int32
	startOnce sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// routeFunc delivers one producer batch to the consumer channels. Every
// producer goroutine gets its own, so a routing function may keep per-stream
// state (the hash split's compiled key program).
type routeFunc func(b *vector.Batch, outs []chan item, quit <-chan struct{}) error

func newXchgCore(ctx context.Context, producers []Operator, consumers int, newRoute func() (routeFunc, error)) *xchgCore {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &xchgCore{ctx: ctx, producers: producers, newRoute: newRoute, quit: make(chan struct{})}
	x.openPorts.Store(int32(consumers))
	x.outs = make([]chan item, consumers)
	for i := range x.outs {
		x.outs[i] = make(chan item, 4)
	}
	return x
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
		for _, p := range x.producers {
			go func(p Operator) {
				defer x.wg.Done()
				route, err := x.newRoute()
				if err != nil {
					x.fanErr(err)
					return
				}
				if err := p.Open(); err != nil {
					x.fanErr(err)
					return
				}
				defer p.Close()
				for {
					if err := x.ctx.Err(); err != nil {
						x.fanErr(fmt.Errorf("exec: exchange producer canceled: %w", context.Cause(x.ctx)))
						return
					}
					b, err := p.Next()
					if err != nil {
						x.fanErr(err)
						return
					}
					if b == nil {
						return
					}
					if err := route(b, x.outs, x.quit); err != nil {
						return
					}
				}
			}(p)
		}
		go func() {
			x.wg.Wait()
			for _, ch := range x.outs {
				close(ch)
			}
		}()
	})
}

func (x *xchgCore) fanErr(err error) {
	for _, ch := range x.outs {
		select {
		case ch <- item{err: err}:
		case <-x.quit:
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

func send(ch chan item, b *vector.Batch, quit <-chan struct{}) error {
	select {
	case ch <- item{b: b}:
		return nil
	case <-quit:
		return errQuit
	}
}

type quitError struct{}

func (quitError) Error() string { return "exec: exchange canceled" }

var errQuit = quitError{}

// stateless adapts a routing function without per-producer state.
func stateless(route routeFunc) func() (routeFunc, error) {
	return func() (routeFunc, error) { return route, nil }
}

func (x *xchgCore) ports() []Operator {
	ports := make([]Operator, len(x.outs))
	for i := range ports {
		ports[i] = &port{x: x, idx: i}
	}
	return ports
}

// XchgUnion merges n producer streams into one consumer stream.
func XchgUnion(ctx context.Context, producers []Operator) Operator {
	x := newXchgCore(ctx, producers, 1, stateless(func(b *vector.Batch, outs []chan item, quit <-chan struct{}) error {
		return send(outs[0], b, quit)
	}))
	return x.ports()[0]
}

// XchgHashSplit hash-partitions n producer streams into m consumer streams
// on the given key expressions. It returns the m consumer ports.
func XchgHashSplit(ctx context.Context, producers []Operator, keys []expr.Expr, m int) []Operator {
	return newXchgCore(ctx, producers, m, func() (routeFunc, error) {
		hasher, err := NewRowHasher(keys)
		if err != nil {
			return nil, err
		}
		return func(b *vector.Batch, outs []chan item, quit <-chan struct{}) error {
			hashes, err := hasher.Hash(b)
			if err != nil {
				// Deliver the error to consumer 0.
				select {
				case outs[0] <- item{err: err}:
				case <-quit:
				}
				return err
			}
			sels := make([][]int32, m)
			for r, h := range hashes {
				d := int(h % uint64(m))
				phys := int32(r)
				if b.Sel != nil {
					phys = b.Sel[r]
				}
				sels[d] = append(sels[d], phys)
			}
			for d, sel := range sels {
				if len(sel) == 0 {
					continue
				}
				if err := send(outs[d], &vector.Batch{Vecs: b.Vecs, Sel: sel}, quit); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}).ports()
}

// XchgBroadcast replicates every producer batch to all m consumer streams
// (used to build replicated join sides).
func XchgBroadcast(ctx context.Context, producers []Operator, m int) []Operator {
	return newXchgCore(ctx, producers, m, stateless(func(b *vector.Batch, outs []chan item, quit <-chan struct{}) error {
		for _, ch := range outs {
			if err := send(ch, b, quit); err != nil {
				return err
			}
		}
		return nil
	})).ports()
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

// HashInt64 hashes a single integer key with the same function HashRows
// uses, so table partitioning (hash of the partition key) and exchange
// partitioning agree everywhere in the engine.
func HashInt64(x int64) uint64 { return vector.HashInt64(x) }
