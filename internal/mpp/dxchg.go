// Package mpp implements the distributed exchange (DXchg) operators of §5:
// DXchgHashSplit and DXchgUnion, the former in both fan-out strategies the
// paper describes —
//
//   - thread-to-thread: every sender partitions straight to every consumer
//     stream (fanout N·C, per-node buffering 2·N·C²·msg), fastest on small
//     clusters;
//   - thread-to-node: senders partition per node (fanout N, buffering
//     2·N·C·msg) and tag each tuple with a receiver-thread column; a
//     per-node dispatcher lets consumer threads selectively consume, which
//     is what keeps VectorH scalable to ~100 nodes.
//
// Exchanges ride on the mpi package: remote sends serialize into ≥MsgBytes
// buffers, intra-node sends pass pointers.
package mpp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// Mode selects the fan-out strategy.
type Mode int

// Fan-out strategies.
const (
	ThreadToThread Mode = iota
	ThreadToNode
)

// Config parameterizes one distributed exchange.
type Config struct {
	Net      *mpi.Network
	Mode     Mode
	MsgBytes int             // flush threshold; default mpi.DefaultMsgBytes
	Ctx      context.Context // query context; senders check it per batch
}

func (c Config) msgBytes() int {
	if c.MsgBytes > 0 {
		return c.MsgBytes
	}
	return mpi.DefaultMsgBytes
}

// Stats reports one exchange's buffering behavior (the §5 scalability
// argument for thread-to-node).
type Stats struct {
	Fanout          int   // per-sender destination buffer count
	PeakBufferBytes int64 // peak total sender-side buffered bytes
}

// Exchange tracks shared exchange state; the concrete operators embed it.
type Exchange struct {
	cfg       Config
	ctx       context.Context
	fanout    int
	curBuf    atomic.Int64
	peakBuf   atomic.Int64
	quit      chan struct{}
	openPorts atomic.Int32
	stopOnce  sync.Once
}

// newExchange initializes shared exchange state and, when the config
// carries a cancelable context, ties the exchange's quit channel to it so a
// cancelled query releases senders blocked on full inboxes and dispatchers
// blocked on empty ones.
func newExchange(cfg Config) *Exchange {
	ex := &Exchange{cfg: cfg, ctx: cfg.Ctx, quit: make(chan struct{})}
	if ex.ctx == nil {
		ex.ctx = context.Background()
	}
	if done := ex.ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				ex.stop()
			case <-ex.quit:
			}
		}()
	}
	return ex
}

// stop tears the exchange down: senders and dispatchers unblock and exit.
func (e *Exchange) stop() { e.stopOnce.Do(func() { close(e.quit) }) }

// newPort wraps a consumer queue in a recvPort whose Close decrements the
// exchange's open-port count, stopping the exchange once the last port is
// closed. Stopping on the FIRST close would lose batches still buffered in
// inboxes of sibling streams mid-query; stopping only on the last close (or
// on context cancellation) is both loss-free and leak-free.
func (e *Exchange) newPort(ch chan portItem) *recvPort {
	e.openPorts.Add(1)
	var once sync.Once
	return &recvPort{ch: ch, stop: func() {
		once.Do(func() {
			if e.openPorts.Add(-1) == 0 {
				e.stop()
			}
		})
	}}
}

// Stats returns buffering statistics after the exchange ran.
func (e *Exchange) Stats() Stats {
	return Stats{Fanout: e.fanout, PeakBufferBytes: e.peakBuf.Load()}
}

func (e *Exchange) bufDelta(d int) {
	cur := e.curBuf.Add(int64(d))
	for {
		peak := e.peakBuf.Load()
		if cur <= peak || e.peakBuf.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// sendBuffer accumulates rows destined for one rank until flush.
type sendBuffer struct {
	vecs  []*vector.Vec
	bytes int
}

// init lays out the buffer's vectors to mirror src (plus the receiver-thread
// column in thread-to-node mode).
func (sb *sendBuffer) init(src *vector.Batch, withExtra bool) {
	for _, v := range src.Vecs {
		sb.vecs = append(sb.vecs, vector.New(v.Kind(), 256))
	}
	if withExtra {
		// The receiver-thread column (one byte per tuple in the paper; an
		// int32 here, counted as 4 bytes per tuple in the message size).
		sb.vecs = append(sb.vecs, vector.New(vector.Int32, 256))
	}
}

// addGather bulk-appends the selected rows of src, tagging each with the
// receiver thread when withExtra is set. Routing is batch-wise: the caller
// groups a batch's rows per destination once and appends each group with one
// gather per column, so the sender's cost is O(rows·cols) appends with byte
// accounting per group — not a full buffer re-sum per row, which dominated
// exchange-heavy profiles.
func (sb *sendBuffer) addGather(e *Exchange, src *vector.Batch, sel []int32, thread int32, withExtra bool) {
	if sb.vecs == nil {
		sb.init(src, withExtra)
	}
	delta := 0
	for i, v := range src.Vecs {
		sb.vecs[i].AppendGather(v, sel)
		delta += v.GatherBytes(sel)
	}
	if withExtra {
		tv := sb.vecs[len(sb.vecs)-1]
		for range sel {
			tv.AppendInt32(thread)
		}
		delta += len(sel) * 4
	}
	sb.bytes += delta
	e.bufDelta(delta)
}

// addAll bulk-appends every row of a dense (Sel-free) batch.
func (sb *sendBuffer) addAll(e *Exchange, src *vector.Batch) {
	if sb.vecs == nil {
		sb.init(src, false)
	}
	delta := 0
	for i, v := range src.Vecs {
		sb.vecs[i].AppendRange(v, 0, v.Len())
		delta += v.Bytes()
	}
	sb.bytes += delta
	e.bufDelta(delta)
}

func (sb *sendBuffer) take(e *Exchange) *vector.Batch {
	if sb.vecs == nil || sb.vecs[0].Len() == 0 {
		return nil
	}
	b := &vector.Batch{Vecs: sb.vecs}
	e.bufDelta(-sb.bytes)
	sb.vecs, sb.bytes = nil, 0
	return b
}

// recvPort is a consumer stream endpoint fed by a channel.
type recvPort struct {
	ch   chan portItem
	stop func()
}

type portItem struct {
	b   *vector.Batch
	err error
}

func (p *recvPort) Open() error { return nil }

func (p *recvPort) Next() (*vector.Batch, error) {
	it, ok := <-p.ch
	if !ok {
		return nil, nil
	}
	return it.b, it.err
}

func (p *recvPort) Close() error {
	if p.stop != nil {
		p.stop()
	}
	return nil
}

// flatten maps (node, thread) to a global stream id.
func flatten(consumersPerNode []int) (total int, streamNode []int) {
	for n, c := range consumersPerNode {
		for t := 0; t < c; t++ {
			streamNode = append(streamNode, n)
		}
		total += c
	}
	return
}

// DXchgHashSplit hash-partitions producer streams (grouped by node) across
// consumer threads on every node. It returns consumer ports indexed
// [node][thread].
//
// Routing runs on exec.RowHasher — the single hash definition shared with
// local exchange partitioning and the join/aggregation hash tables. Every
// sender compiles its own from keys, so steady-state routing is
// allocation-free and nothing mutable is shared between senders.
func DXchgHashSplit(cfg Config, producers [][]exec.Operator, keys []expr.Expr, consumersPerNode []int) ([][]exec.Operator, *Exchange) {
	totalStreams, streamNode := flatten(consumersPerNode)
	ex := newExchange(cfg)
	nSenders := 0
	for _, ps := range producers {
		nSenders += len(ps)
	}

	var comm *mpi.Comm
	var queues []chan portItem // per consumer stream
	queues = make([]chan portItem, totalStreams)
	for i := range queues {
		queues[i] = make(chan portItem, 4)
	}

	if cfg.Mode == ThreadToThread {
		ex.fanout = totalStreams
		comm = cfg.Net.NewComm(totalStreams, nSenders, func(r int) int { return streamNode[r] })
	} else {
		ex.fanout = len(consumersPerNode)
		comm = cfg.Net.NewComm(len(consumersPerNode), nSenders, nil)
	}

	// Sender goroutines.
	for pn, ps := range producers {
		for _, p := range ps {
			go runSplitSender(ex, comm, pn, p, totalStreams, streamNode, consumersPerNode, keys)
		}
	}

	// Receiver side.
	if cfg.Mode == ThreadToThread {
		for s := 0; s < totalStreams; s++ {
			go func(s int) {
				defer close(queues[s])
				for {
					m, ok := comm.RecvQuit(s, ex.quit)
					if !ok {
						return
					}
					forward(queues[s], m, ex.quit)
				}
			}(s)
		}
	} else {
		// Per-node dispatcher: splits incoming buffers by the
		// receiver-thread column so consumer threads selectively
		// consume.
		streamBase := make([]int, len(consumersPerNode))
		base := 0
		for n, c := range consumersPerNode {
			streamBase[n] = base
			base += c
		}
		var wg sync.WaitGroup
		for n := range consumersPerNode {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for {
					m, ok := comm.RecvQuit(n, ex.quit)
					if !ok {
						return
					}
					b, err := m.Batch()
					if err != nil {
						select {
						case queues[streamBase[n]] <- portItem{err: err}:
						case <-ex.quit:
						}
						continue
					}
					dispatchByThreadCol(b, queues, streamBase[n], consumersPerNode[n], ex.quit)
				}
			}(n)
		}
		go func() {
			wg.Wait()
			for _, q := range queues {
				close(q)
			}
		}()
	}

	ports := make([][]exec.Operator, len(consumersPerNode))
	s := 0
	for n, c := range consumersPerNode {
		for t := 0; t < c; t++ {
			ports[n] = append(ports[n], ex.newPort(queues[s]))
			s++
		}
	}
	return ports, ex
}

func runSplitSender(ex *Exchange, comm *mpi.Comm, node int, p exec.Operator,
	totalStreams int, streamNode []int, consumersPerNode []int, keys []expr.Expr) {

	defer comm.DoneSending()
	t2t := ex.cfg.Mode == ThreadToThread
	var bufs []sendBuffer
	if t2t {
		bufs = make([]sendBuffer, totalStreams)
	} else {
		bufs = make([]sendBuffer, len(consumersPerNode))
	}
	// Per-stream routing tables and reusable selection lists: rows of each
	// batch are grouped by destination stream first, then appended buffer-wise
	// with one gather per column.
	destOf := make([]int, totalStreams)
	threadOf := make([]int32, totalStreams)
	for s := 0; s < totalStreams; s++ {
		if t2t {
			destOf[s] = s
		} else {
			dn := streamNode[s]
			destOf[s] = dn
			threadOf[s] = int32(s - firstStreamOf(dn, consumersPerNode))
		}
	}
	sels := make([][]int32, totalStreams)
	fail := func(err error) {
		// Deliver the error through rank 0 so some consumer sees it.
		comm.SendQuit(node, 0, errBatch(err), ex.quit)
	}
	hasher, err := exec.NewRowHasher(keys)
	if err != nil {
		fail(err)
		return
	}
	if err := p.Open(); err != nil {
		fail(err)
		return
	}
	defer p.Close()
	for {
		// The per-batch cancellation point of §5's DXchg senders: a
		// cancelled query stops partitioning and stops pulling from the
		// producer subtree, so its cores are released mid-plan.
		if err := ex.ctx.Err(); err != nil {
			fail(fmt.Errorf("mpp: sender canceled: %w", context.Cause(ex.ctx)))
			return
		}
		b, err := p.Next()
		if err != nil {
			fail(err)
			return
		}
		if b == nil {
			break
		}
		rvals, err := hasher.Hash(b)
		if err != nil {
			fail(err)
			return
		}
		for i := range sels {
			sels[i] = sels[i][:0]
		}
		for r := 0; r < b.Len(); r++ {
			stream := int(rvals[r] % uint64(totalStreams))
			phys := int32(r)
			if b.Sel != nil {
				phys = b.Sel[r]
			}
			sels[stream] = append(sels[stream], phys)
		}
		for s, sel := range sels {
			if len(sel) == 0 {
				continue
			}
			d := destOf[s]
			bufs[d].addGather(ex, b, sel, threadOf[s], !t2t)
			if bufs[d].bytes >= ex.cfg.msgBytes() {
				if !comm.SendQuit(node, d, bufs[d].take(ex), ex.quit) {
					return
				}
			}
		}
	}
	for d := range bufs {
		if b := bufs[d].take(ex); b != nil {
			if !comm.SendQuit(node, d, b, ex.quit) {
				return
			}
		}
	}
}

func firstStreamOf(node int, consumersPerNode []int) int {
	s := 0
	for n := 0; n < node; n++ {
		s += consumersPerNode[n]
	}
	return s
}

// dispatchByThreadCol splits a thread-tagged batch to per-thread queues,
// stripping the tag column.
func dispatchByThreadCol(b *vector.Batch, queues []chan portItem, base, threads int, quit <-chan struct{}) {
	tcol := b.Vecs[len(b.Vecs)-1].Int32s()
	data := &vector.Batch{Vecs: b.Vecs[:len(b.Vecs)-1]}
	sels := make([][]int32, threads)
	for r, t := range tcol {
		sels[t] = append(sels[t], int32(r))
	}
	for t, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		select {
		case queues[base+t] <- portItem{b: &vector.Batch{Vecs: data.Vecs, Sel: sel}}:
		case <-quit:
			return
		}
	}
}

func forward(q chan portItem, m mpi.Message, quit <-chan struct{}) {
	b, err := m.Batch()
	it := portItem{b: b, err: err}
	if err == nil {
		if eb := asErrBatch(b); eb != nil {
			it = portItem{err: eb}
		}
	} else {
		it = portItem{err: err}
	}
	select {
	case q <- it:
	case <-quit:
	}
}

// DXchgUnion funnels every producer stream to a single consumer stream on
// the given node (the 180:1 DXchgUnion of the Appendix Q1 plan).
func DXchgUnion(cfg Config, producers [][]exec.Operator, consumerNode int) (exec.Operator, *Exchange) {
	ex := newExchange(cfg)
	ex.fanout = 1
	nSenders := 0
	for _, ps := range producers {
		nSenders += len(ps)
	}
	comm := cfg.Net.NewComm(1, nSenders, func(int) int { return consumerNode })
	for pn, ps := range producers {
		for _, p := range ps {
			go runForwardSender(ex, comm, pn, p, []int{0})
		}
	}
	q := make(chan portItem, 4)
	go func() {
		defer close(q)
		for {
			m, ok := comm.RecvQuit(0, ex.quit)
			if !ok {
				return
			}
			forward(q, m, ex.quit)
		}
	}()
	return ex.newPort(q), ex
}

// runForwardSender buffers batches and sends them whole to a list of
// destination ranks (the union's single consumer).
func runForwardSender(ex *Exchange, comm *mpi.Comm, node int, p exec.Operator, dests []int) {
	defer comm.DoneSending()
	var buf sendBuffer
	if err := p.Open(); err != nil {
		comm.SendQuit(node, dests[0], errBatch(err), ex.quit)
		return
	}
	defer p.Close()
	for {
		if err := ex.ctx.Err(); err != nil {
			comm.SendQuit(node, dests[0], errBatch(fmt.Errorf("mpp: sender canceled: %w", context.Cause(ex.ctx))), ex.quit)
			return
		}
		b, err := p.Next()
		if err != nil {
			comm.SendQuit(node, dests[0], errBatch(err), ex.quit)
			return
		}
		if b == nil {
			break
		}
		if b.Sel == nil {
			buf.addAll(ex, b)
		} else {
			buf.addGather(ex, b, b.Sel, 0, false)
		}
		if buf.bytes >= ex.cfg.msgBytes() {
			out := buf.take(ex)
			for _, d := range dests {
				if !comm.SendQuit(node, d, out, ex.quit) {
					return
				}
			}
		}
	}
	if out := buf.take(ex); out != nil {
		for _, d := range dests {
			if !comm.SendQuit(node, d, out, ex.quit) {
				return
			}
		}
	}
}

// Error transport: errors are encoded as a one-column batch with a sentinel
// schema so they survive serialization.
const errSentinel = "\x00dxchg-error\x00"

func errBatch(err error) *vector.Batch {
	return vector.NewBatch(vector.FromString([]string{errSentinel, err.Error()}))
}

func asErrBatch(b *vector.Batch) error {
	if len(b.Vecs) == 1 && b.Vecs[0].Kind() == vector.String && b.Len() == 2 {
		s := b.Vecs[0].Strings()
		if s[0] == errSentinel {
			return &exchangeError{s[1]}
		}
	}
	return nil
}

type exchangeError struct{ msg string }

func (e *exchangeError) Error() string { return "mpp: exchange producer failed: " + e.msg }
