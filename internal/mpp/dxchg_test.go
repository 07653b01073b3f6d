package mpp

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectorh/internal/compress"
	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

func producer(lo, n int) exec.Operator { return producerStr(lo, n, "v") }

// producerStr returns n rows in 200-row batches: keys lo…lo+n-1 and the
// string str on every row.
func producerStr(lo, n int, str string) exec.Operator {
	var batches []*vector.Batch
	for off := 0; off < n; off += 200 {
		cnt := n - off
		if cnt > 200 {
			cnt = 200
		}
		ks := make([]int64, cnt)
		vs := make([]string, cnt)
		for i := 0; i < cnt; i++ {
			ks[i] = int64(lo + off + i)
			vs[i] = str
		}
		batches = append(batches, vector.NewBatch(vector.FromInt64(ks), vector.FromString(vs)))
	}
	return &exec.BatchSource{Batches: batches}
}

func collectAll(t *testing.T, ports [][]exec.Operator) (total int, byStream map[int][]int64) {
	t.Helper()
	byStream = map[int][]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	id := 0
	for _, nodePorts := range ports {
		for _, p := range nodePorts {
			wg.Add(1)
			go func(id int, p exec.Operator) {
				defer wg.Done()
				rows, err := exec.Collect(p)
				if err != nil {
					t.Errorf("stream %d: %v", id, err)
					return
				}
				mu.Lock()
				for _, r := range rows {
					byStream[id] = append(byStream[id], r[0].(int64))
					total++
				}
				mu.Unlock()
			}(id, p)
			id++
		}
	}
	wg.Wait()
	return total, byStream
}

var key = []expr.Expr{expr.Col(0, vector.Int64)}

func TestDXchgHashSplitCompleteAndConsistent(t *testing.T) {
	// Every producer thread sends to every consumer thread.
	t.Run("thread-to-thread", func(t *testing.T) {
		net := mpi.NewNetwork(3)
		cfg := Config{Net: net, MsgBytes: 1024}
		producers := [][]exec.Operator{
			{producer(0, 500), producer(500, 500)},
			{producer(1000, 500)},
			{producer(1500, 500)},
		}
		ports, err := DXchgHashSplit(cfg, producers, key, []int{2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		total, byStream := collectAll(t, ports)
		if total != 2000 {
			t.Fatalf("total = %d", total)
		}
		// No key may appear in two streams.
		owner := map[int64]int{}
		for s, keys := range byStream {
			for _, k := range keys {
				if prev, ok := owner[k]; ok && prev != s {
					t.Fatalf("key %d in streams %d and %d", k, prev, s)
				}
				owner[k] = s
			}
		}
	})
}

// TestDXchgRemoteVsLocalAccounting pins the traffic counts, and with them
// the message framing: flush at MsgBytes per destination stream, once more
// at end of input, pointers on the sender's node, encoded bytes across. A
// broadcast ships each message encoded to every other consumer node and by
// pointer to its own, so its remote messages are (N−1) × its local handoffs.
func TestDXchgRemoteVsLocalAccounting(t *testing.T) {
	t.Run("broadcast", func(t *testing.T) {
		net := mpi.NewNetwork(3)
		producers := [][]exec.Operator{{producer(0, 1000)}, {producer(1000, 1000), producer(2000, 1000)}, {producer(3000, 1000)}}
		ports, err := DXchgBroadcast(Config{Net: net, MsgBytes: 512}, producers, []bool{true, true, true})
		if err != nil {
			t.Fatal(err)
		}
		if total, _ := collectAll(t, ports); total != 3*4000 {
			t.Fatalf("total = %d", total)
		}
		if got := net.Stats(); got.LocalHandoffs == 0 || got.RemoteMsgs != 2*got.LocalHandoffs {
			t.Errorf("traffic %+v, want remote messages = 2 × local handoffs", got)
		}
	})
	for _, tc := range []struct {
		consumers []int
		want      mpi.Stats
	}{
		{[]int{2, 2}, mpi.Stats{RemoteBytes: 10140, RemoteMsgs: 20, LocalHandoffs: 20}},
		{[]int{1, 1}, mpi.Stats{RemoteBytes: 10050, RemoteMsgs: 10, LocalHandoffs: 10}},
	} {
		net := mpi.NewNetwork(2)
		producers := [][]exec.Operator{{producer(0, 1000)}, {producer(1000, 1000)}}
		ports, err := DXchgHashSplit(Config{Net: net, MsgBytes: 512}, producers, key, tc.consumers)
		if err != nil {
			t.Fatal(err)
		}
		if total, _ := collectAll(t, ports); total != 2000 {
			t.Fatalf("%v: total = %d", tc.consumers, total)
		}
		if got := net.Stats(); got != tc.want {
			t.Errorf("%v: traffic %+v, want %+v", tc.consumers, got, tc.want)
		}
	}
}

// TestDXchgBroadcastEveryRowOncePerNode: each consumer node receives every
// producer row exactly once, and a node left out gets no port.
func TestDXchgBroadcastEveryRowOncePerNode(t *testing.T) {
	for _, toNode := range [][]bool{{true, true, true}, {true, false, true}, {false, true, false}} {
		net := mpi.NewNetwork(3)
		producers := [][]exec.Operator{{producer(0, 700), producer(700, 300)}, nil, {producer(1000, 500)}}
		ports, err := DXchgBroadcast(Config{Net: net, MsgBytes: 1024}, producers, toNode)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for n, to := range toNode {
			if to != (len(ports[n]) == 1) || len(ports[n]) > 1 {
				t.Fatalf("%v: node %d has %d ports", toNode, n, len(ports[n]))
			}
			if to {
				want++
			}
		}
		_, byStream := collectAll(t, ports)
		if len(byStream) != want {
			t.Fatalf("%v: %d consumer streams got rows, want %d", toNode, len(byStream), want)
		}
		for s, keys := range byStream {
			seen := make(map[int64]int, len(keys))
			for _, k := range keys {
				seen[k]++
			}
			for k := int64(0); k < 1500; k++ {
				if seen[k] != 1 {
					t.Fatalf("%v: stream %d got key %d %d times", toNode, s, k, seen[k])
				}
			}
			if len(keys) != 1500 {
				t.Fatalf("%v: stream %d got %d rows, want 1500", toNode, s, len(keys))
			}
		}
	}
}

// TestDXchgMessagesHoldMsgBytes: a sender counts what its buffer holds, and
// the buffer stores strings, so a column that arrives as dictionary codes
// over long strings still ships at MsgBytes. No message, remote or handed
// off, holds more than MsgBytes plus the one batch whose append crossed it.
// Counting such a column at its 4-byte codes shipped messages of 1.4 MB here.
func TestDXchgMessagesHoldMsgBytes(t *testing.T) {
	const msgBytes, rows, batches, width = 16 << 10, 200, 20, 1000
	dict := &compress.StrDict{Values: []string{strings.Repeat("a", width), strings.Repeat("b", width)}}
	coded := func(lo int) exec.Operator {
		var bs []*vector.Batch
		for off := 0; off < rows*batches; off += rows {
			ks, codes := make([]int64, rows), make([]uint32, rows)
			for i := range ks {
				ks[i], codes[i] = int64(lo+off+i), uint32(i%2)
			}
			bs = append(bs, vector.NewBatch(vector.FromInt64(ks), vector.FromDictCodes(codes, dict)))
		}
		return &exec.BatchSource{Batches: bs}
	}
	bound := msgBytes + rows*(8+width+4) // a batch as the buffer stores it
	for _, tc := range []struct {
		name  string
		ports func(cfg Config) ([]exec.Operator, error)
	}{
		{"union", func(cfg Config) ([]exec.Operator, error) {
			u, err := DXchgUnion(cfg, [][]exec.Operator{{coded(0)}, {coded(1 << 20)}}, 1)
			return []exec.Operator{u}, err
		}},
		{"hash split", func(cfg Config) ([]exec.Operator, error) {
			ports, err := DXchgHashSplit(cfg, [][]exec.Operator{{coded(0)}, {coded(1 << 20)}}, key, []int{1, 1})
			return slices.Concat(ports...), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := mpi.NewNetwork(2)
			ports, err := tc.ports(Config{Net: net, MsgBytes: msgBytes})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var total, largest int
			var wg sync.WaitGroup
			for _, p := range ports {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer p.Close()
					if err := p.Open(); err != nil {
						t.Error(err)
						return
					}
					for {
						b, err := p.Next()
						if err != nil {
							t.Error(err)
						}
						if b == nil || err != nil {
							return
						}
						mu.Lock()
						total, largest = total+b.Len(), max(largest, b.Bytes())
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if total != 2*rows*batches {
				t.Fatalf("%d rows, want %d", total, 2*rows*batches)
			}
			if largest > bound {
				t.Fatalf("a message holds %d bytes, want at most MsgBytes %d plus one batch, %d", largest, msgBytes, bound)
			}
		})
	}
}

func TestDXchgUnion(t *testing.T) {
	net := mpi.NewNetwork(3)
	producers := [][]exec.Operator{{producer(0, 300)}, {producer(300, 300)}, {producer(600, 300)}}
	u, err := DXchgUnion(Config{Net: net, MsgBytes: 2048}, producers, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 900 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestDXchgRejectsUnroutableTopology(t *testing.T) {
	net := mpi.NewNetwork(2)
	producers := [][]exec.Operator{{producer(0, 10)}, {producer(10, 10)}}
	for _, consumers := range [][]int{nil, {0, 0}, {-1, 2}, {1, 1, 1}} {
		if _, err := DXchgHashSplit(Config{Net: net}, producers, key, consumers); err == nil {
			t.Errorf("DXchgHashSplit to %v: no error", consumers)
		}
	}
	for _, node := range []int{-1, 2} {
		if _, err := DXchgUnion(Config{Net: net}, producers, node); err == nil {
			t.Errorf("DXchgUnion to node %d: no error", node)
		}
	}
	if _, err := DXchgUnion(Config{Net: mpi.NewNetwork(1)}, producers, 0); err == nil {
		t.Error("DXchgUnion from 2 producer nodes on a 1-node network: no error")
	}
	for _, toNode := range [][]bool{nil, {false, false}, {true, true, true}} {
		if _, err := DXchgBroadcast(Config{Net: net}, producers, toNode); err == nil {
			t.Errorf("DXchgBroadcast to %v: no error", toNode)
		}
	}
}

type failOp struct{ err error }

func (failOp) Open() error                    { return nil }
func (f failOp) Next() (*vector.Batch, error) { return nil, f.err }
func (failOp) Close() error                   { return nil }

// TestDXchgPropagatesProducerErrors: a sender's error reaches every consumer
// port as the original value.
func TestDXchgPropagatesProducerErrors(t *testing.T) {
	producerErr := errors.New("producer exploded")
	producers := func() [][]exec.Operator {
		return [][]exec.Operator{{failOp{producerErr}}, {producer(0, 10)}}
	}
	split, err := DXchgHashSplit(Config{Net: mpi.NewNetwork(2), MsgBytes: 512}, producers(), key, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	union, err := DXchgUnion(Config{Net: mpi.NewNetwork(2), MsgBytes: 512}, producers(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := DXchgBroadcast(Config{Net: mpi.NewNetwork(2), MsgBytes: 512}, producers(), []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	ports := append(append([]exec.Operator{}, split[0]...), split[1]...)
	ports = append(ports, union, bcast[0][0], bcast[1][0])
	var got atomic.Int32
	var wg sync.WaitGroup
	for _, p := range ports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := exec.Collect(p); errors.Is(err, producerErr) {
				got.Add(1)
			} else {
				t.Errorf("port returned %v, want %v", err, producerErr)
			}
		}()
	}
	wg.Wait()
	if int(got.Load()) != len(ports) {
		t.Fatalf("%d of %d ports saw the producer error", got.Load(), len(ports))
	}
}

// endless returns the same 200-row batch forever.
func endless() exec.Operator {
	b := producer(0, 200).(*exec.BatchSource).Batches[0]
	return &exec.FuncSource{NextFn: func() (*vector.Batch, error) { return b, nil }}
}

// TestExchangeTeardown stops each exchange constructor, after every port has
// delivered its first batch and while the endless producers fill the
// channels, by closing every port or by cancelling the query context; either
// way every goroutine the exchange started must exit.
func TestExchangeTeardown(t *testing.T) {
	constructors := []struct {
		name  string
		build func(ctx context.Context) ([]exec.Operator, error)
	}{
		{"XchgHashSplit", func(ctx context.Context) ([]exec.Operator, error) {
			return exec.XchgHashSplit(ctx, []exec.Operator{endless(), endless()}, key, 3), nil
		}},
		{"DXchgHashSplit", func(ctx context.Context) ([]exec.Operator, error) {
			ports, err := DXchgHashSplit(Config{Net: mpi.NewNetwork(2), MsgBytes: 512, Ctx: ctx},
				[][]exec.Operator{{endless(), endless()}, {endless()}}, key, []int{2, 1})
			if err != nil {
				return nil, err
			}
			return append(ports[0], ports[1]...), nil
		}},
		{"DXchgUnion", func(ctx context.Context) ([]exec.Operator, error) {
			u, err := DXchgUnion(Config{Net: mpi.NewNetwork(2), MsgBytes: 512, Ctx: ctx},
				[][]exec.Operator{{endless()}, {endless()}}, 0)
			return []exec.Operator{u}, err
		}},
		{"DXchgBroadcast", func(ctx context.Context) ([]exec.Operator, error) {
			ports, err := DXchgBroadcast(Config{Net: mpi.NewNetwork(3), MsgBytes: 512, Ctx: ctx},
				[][]exec.Operator{{endless(), endless()}, {endless()}, {endless()}}, []bool{true, false, true})
			if err != nil {
				return nil, err
			}
			return append(ports[0], ports[2]...), nil
		}},
	}
	for _, c := range constructors {
		for _, cancelQuery := range []bool{false, true} {
			name := c.name + "/close"
			if cancelQuery {
				name = c.name + "/cancel"
			}
			t.Run(name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ports, err := c.build(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ports {
					if err := p.Open(); err != nil {
						t.Fatal(err)
					}
					if b, err := p.Next(); b == nil || err != nil {
						t.Fatalf("port %d: first batch %v, %v", i, b, err)
					}
				}
				if cancelQuery {
					cancel()
				} else {
					for _, p := range ports {
						p.Close()
					}
				}
				waitGoroutines(t, baseline)
				for _, p := range ports {
					p.Close()
				}
			})
		}
	}
}

// waitGoroutines fails the test unless the goroutine count settles back to
// baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d vs baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkDXchgHashSplit routes rows from every thread of every node to
// every consumer stream, the producers' batches built once outside the timer:
// "4x4" is 32k rows on 4 nodes × 4 threads with 8 KiB messages, most of them
// first or last partial buffers; "3x2-fill" is 240k rows with a 16-byte
// string column on the benchmark's 3 × 2 topology with 64 KiB messages, where
// most messages fill and the send and wire buffers reach steady state.
func BenchmarkDXchgHashSplit(b *testing.B) {
	for _, c := range []struct {
		name                    string
		nodes, threads, perProd int
		msgBytes                int
		str                     string
	}{
		{"4x4", 4, 4, 2000, 8192, "v"},
		{"3x2-fill", 3, 2, 40000, 64 << 10, "shipment-comment"},
	} {
		b.Run(c.name, func(b *testing.B) {
			producers := make([][]exec.Operator, c.nodes)
			consumers := make([]int, c.nodes)
			for n := range producers {
				for j := 0; j < c.threads; j++ {
					producers[n] = append(producers[n], producerStr((n*c.threads+j)*c.perProd, c.perProd, c.str))
				}
				consumers[n] = c.threads
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ports, err := DXchgHashSplit(Config{Net: mpi.NewNetwork(c.nodes), MsgBytes: c.msgBytes}, producers, key, consumers)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for _, nodePorts := range ports {
					for _, p := range nodePorts {
						wg.Add(1)
						go func() {
							defer wg.Done()
							drain(p)
						}()
					}
				}
				wg.Wait()
			}
		})
	}
}

// drain pulls every batch from p without materializing rows.
func drain(p exec.Operator) {
	defer p.Close()
	if p.Open() != nil {
		return
	}
	for {
		if b, err := p.Next(); b == nil || err != nil {
			return
		}
	}
}
