package mpp

import (
	"errors"
	"sync"
	"testing"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

func producer(lo, n int) exec.Operator {
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
			vs[i] = "v"
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

func testBothModes(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Run("thread-to-thread", func(t *testing.T) { fn(t, ThreadToThread) })
	t.Run("thread-to-node", func(t *testing.T) { fn(t, ThreadToNode) })
}

func TestDXchgHashSplitCompleteAndConsistent(t *testing.T) {
	testBothModes(t, func(t *testing.T, mode Mode) {
		net := mpi.NewNetwork(3)
		cfg := Config{Net: net, Mode: mode, MsgBytes: 1024}
		producers := [][]exec.Operator{
			{producer(0, 500), producer(500, 500)},
			{producer(1000, 500)},
			{producer(1500, 500)},
		}
		ports, ex := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{2, 2, 2})
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
		if ex.Stats().PeakBufferBytes <= 0 {
			t.Fatal("no buffering recorded")
		}
		wantFanout := 6
		if mode == ThreadToNode {
			wantFanout = 3
		}
		if ex.Stats().Fanout != wantFanout {
			t.Fatalf("fanout = %d, want %d", ex.Stats().Fanout, wantFanout)
		}
	})
}

func TestDXchgRemoteVsLocalAccounting(t *testing.T) {
	net := mpi.NewNetwork(2)
	cfg := Config{Net: net, Mode: ThreadToNode, MsgBytes: 512}
	producers := [][]exec.Operator{{producer(0, 1000)}, {producer(1000, 1000)}}
	ports, _ := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{1, 1})
	total, _ := collectAll(t, ports)
	if total != 2000 {
		t.Fatalf("total = %d", total)
	}
	s := net.Stats()
	if s.RemoteBytes == 0 || s.RemoteMsgs == 0 {
		t.Fatalf("no remote traffic recorded: %+v", s)
	}
	if s.LocalHandoffs == 0 {
		t.Fatalf("no intra-node pointer passes recorded: %+v", s)
	}
}

func TestThreadToNodeReducesFanoutAndBuffering(t *testing.T) {
	run := func(mode Mode) Stats {
		net := mpi.NewNetwork(4)
		cfg := Config{Net: net, Mode: mode, MsgBytes: 4096}
		producers := make([][]exec.Operator, 4)
		for n := range producers {
			for i := 0; i < 4; i++ {
				producers[n] = append(producers[n], producer(n*4000+i*1000, 1000))
			}
		}
		ports, ex := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{4, 4, 4, 4})
		total, _ := collectAll(t, ports)
		if total != 16000 {
			t.Fatalf("total = %d", total)
		}
		return ex.Stats()
	}
	t2t := run(ThreadToThread)
	t2n := run(ThreadToNode)
	if t2n.Fanout >= t2t.Fanout {
		t.Fatalf("fanout t2n=%d should be < t2t=%d", t2n.Fanout, t2t.Fanout)
	}
}

func TestDXchgUnion(t *testing.T) {
	net := mpi.NewNetwork(3)
	producers := [][]exec.Operator{{producer(0, 300)}, {producer(300, 300)}, {producer(600, 300)}}
	u, _ := DXchgUnion(Config{Net: net, MsgBytes: 2048}, producers, 0)
	rows, err := exec.Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 900 {
		t.Fatalf("rows = %d", len(rows))
	}
}

type failOp struct{}

func (failOp) Open() error                  { return nil }
func (failOp) Next() (*vector.Batch, error) { return nil, errors.New("producer exploded") }
func (failOp) Close() error                 { return nil }

func TestDXchgPropagatesProducerErrors(t *testing.T) {
	net := mpi.NewNetwork(2)
	producers := [][]exec.Operator{{failOp{}}, {producer(0, 10)}}
	ports, _ := DXchgHashSplit(Config{Net: net, MsgBytes: 512}, producers,
		[]expr.Expr{expr.Col(0, vector.Int64)}, []int{1, 1})
	var sawErr bool
	var wg sync.WaitGroup
	for _, nodePorts := range ports {
		for _, p := range nodePorts {
			wg.Add(1)
			go func(p exec.Operator) {
				defer wg.Done()
				if _, err := exec.Collect(p); err != nil {
					sawErr = true
				}
			}(p)
		}
	}
	wg.Wait()
	if !sawErr {
		t.Fatal("producer error not delivered to any consumer")
	}
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{-1, 2, 1 << 40}),
		vector.FromInt32([]int32{7, -8, 9}),
		vector.FromFloat64([]float64{1.5, -2.5, 0}),
		vector.FromString([]string{"", "abc", "日本"}),
		vector.FromBool([]bool{true, false, true}),
	)
	b.Sel = []int32{2, 0}
	got, err := mpi.DecodeBatch(mpi.EncodeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Row(0)[0].(int64) != 1<<40 || got.Row(1)[3].(string) != "" {
		t.Fatalf("round trip = %v %v", got.Row(0), got.Row(1))
	}
	if _, err := mpi.DecodeBatch([]byte{1, 2}); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

func BenchmarkDXchgFanout(b *testing.B) {
	// Ablation: thread-to-thread vs thread-to-node on a 4x4 topology.
	for _, mode := range []Mode{ThreadToThread, ThreadToNode} {
		name := "thread-to-thread"
		if mode == ThreadToNode {
			name = "thread-to-node"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := mpi.NewNetwork(4)
				cfg := Config{Net: net, Mode: mode, MsgBytes: 8192}
				producers := make([][]exec.Operator, 4)
				for n := range producers {
					for j := 0; j < 4; j++ {
						producers[n] = append(producers[n], producer(n*8000+j*2000, 2000))
					}
				}
				ports, _ := DXchgHashSplit(cfg, producers, []expr.Expr{expr.Col(0, vector.Int64)}, []int{4, 4, 4, 4})
				var wg sync.WaitGroup
				for _, nodePorts := range ports {
					for _, p := range nodePorts {
						wg.Add(1)
						go func(p exec.Operator) {
							defer wg.Done()
							exec.Collect(p)
						}(p)
					}
				}
				wg.Wait()
			}
		})
	}
}
