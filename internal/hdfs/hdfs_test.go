package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func newTestCluster(nodes int, blockSize int) *Cluster {
	var names []string
	for i := 0; i < nodes; i++ {
		names = append(names, fmt.Sprintf("node%d", i+1))
	}
	return NewCluster(names, Config{BlockSize: blockSize, Replication: 3})
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(4, 64)
	data := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.WriteFile("/t/f1", "node1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll("/t/f1", "node1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if sz, _ := c.Size("/t/f1"); sz != 1000 {
		t.Fatalf("size = %d", sz)
	}
}

func TestCreateExistingFails(t *testing.T) {
	c := newTestCluster(3, 64)
	if _, err := c.Create("/f", "node1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/f", "node1"); err == nil {
		t.Fatal("second create should fail")
	}
}

func TestAppendContinuesPartialBlock(t *testing.T) {
	c := newTestCluster(3, 100)
	w, _ := c.Create("/f", "node1")
	w.Write(bytes.Repeat([]byte{1}, 30))
	w.Close()
	w2, err := c.Append("/f", "node1")
	if err != nil {
		t.Fatal(err)
	}
	w2.Write(bytes.Repeat([]byte{2}, 30))
	w2.Close()
	locs, _ := c.BlockLocations("/f")
	if len(locs) != 1 {
		t.Fatalf("append should fill the partial block; got %d blocks", len(locs))
	}
	got, _ := c.ReadAll("/f", "node1")
	if got[29] != 1 || got[30] != 2 || len(got) != 60 {
		t.Fatal("append content wrong")
	}
}

func TestBlocksSplitAtBlockSize(t *testing.T) {
	c := newTestCluster(3, 64)
	data := make([]byte, 64*3+10)
	c.WriteFile("/f", "node1", data)
	locs, _ := c.BlockLocations("/f")
	if len(locs) != 4 {
		t.Fatalf("blocks = %d, want 4", len(locs))
	}
	for i, l := range locs {
		if len(l) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(l))
		}
	}
}

func TestWriterGetsFirstReplica(t *testing.T) {
	c := newTestCluster(5, 64)
	c.WriteFile("/f", "node3", make([]byte, 200))
	locs, _ := c.BlockLocations("/f")
	for i, l := range locs {
		if l[0] != "node3" {
			t.Fatalf("block %d first replica = %s, want writer node3", i, l[0])
		}
	}
}

func TestShortCircuitAccounting(t *testing.T) {
	c := newTestCluster(5, 64)
	c.WriteFile("/f", "node1", make([]byte, 128))
	c.ResetStats()
	// node1 holds a replica: local.
	c.ReadAll("/f", "node1")
	s := c.Stats()
	if s.LocalBytesRead != 128 || s.RemoteBytesRead != 0 {
		t.Fatalf("local read accounting: %+v", s)
	}
	// A node without a replica reads remotely.
	locs, _ := c.BlockLocations("/f")
	holders := map[string]bool{}
	for _, l := range locs {
		for _, n := range l {
			holders[n] = true
		}
	}
	var outsider string
	for _, n := range c.Nodes() {
		if !holders[n] {
			outsider = n
			break
		}
	}
	if outsider == "" {
		t.Skip("all nodes hold replicas")
	}
	c.ResetStats()
	c.ReadAll("/f", outsider)
	s = c.Stats()
	if s.RemoteBytesRead != 128 || s.LocalBytesRead != 0 {
		t.Fatalf("remote read accounting: %+v", s)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	c := newTestCluster(3, 64)
	c.WriteFile("/f", "node1", make([]byte, 10))
	r, _ := c.Open("/f", "node1")
	buf := make([]byte, 11)
	if _, err := r.ReadAt(buf, 0); err == nil {
		t.Fatal("read beyond EOF should fail")
	}
	if _, err := r.ReadAt(buf[:5], 6); err == nil {
		t.Fatal("read crossing EOF should fail")
	}
	if _, err := r.ReadAt(buf[:4], 6); err != nil {
		t.Fatalf("valid tail read failed: %v", err)
	}
}

func TestKillNodeAndReReplicate(t *testing.T) {
	c := newTestCluster(5, 64)
	c.WriteFile("/f", "node1", make([]byte, 64*4))
	c.KillNode("node1")
	locs, _ := c.BlockLocations("/f")
	for i, l := range locs {
		if len(l) != 2 {
			t.Fatalf("block %d should have 2 replicas after kill, has %d", i, len(l))
		}
	}
	created := c.ReReplicate()
	if created != 4 {
		t.Fatalf("re-replicated %d blocks, want 4", created)
	}
	locs, _ = c.BlockLocations("/f")
	for i, l := range locs {
		if len(l) != 3 {
			t.Fatalf("block %d has %d replicas after re-replication", i, len(l))
		}
		for _, n := range l {
			if n == "node1" {
				t.Fatal("dead node still listed as replica holder")
			}
		}
	}
	// Data must still be readable.
	if _, err := c.ReadAll("/f", "node2"); err != nil {
		t.Fatal(err)
	}
}

func TestReReplicateWithTooFewNodes(t *testing.T) {
	c := newTestCluster(3, 64)
	c.WriteFile("/f", "node1", make([]byte, 64))
	c.KillNode("node1")
	c.ReReplicate() // only 2 nodes alive; best effort
	locs, _ := c.BlockLocations("/f")
	if len(locs[0]) != 2 {
		t.Fatalf("want 2 replicas on 2 alive nodes, got %d", len(locs[0]))
	}
}

func TestSetReplicationForSpillFiles(t *testing.T) {
	c := newTestCluster(5, 64)
	c.WriteFile("/tmp/spill", "node1", make([]byte, 64))
	if err := c.SetReplication("/tmp/spill", 1); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/tmp/spill")
	if len(locs[0]) != 1 {
		t.Fatalf("replicas = %d, want 1", len(locs[0]))
	}
	if err := c.SetReplication("/missing", 1); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestDeleteAndList(t *testing.T) {
	c := newTestCluster(3, 64)
	c.WriteFile("/a/1", "node1", []byte{1})
	c.WriteFile("/a/2", "node1", []byte{2})
	c.WriteFile("/b/1", "node1", []byte{3})
	if got := c.List("/a/"); len(got) != 2 || got[0] != "/a/1" {
		t.Fatalf("List = %v", got)
	}
	if err := c.Delete("/a/1"); err != nil {
		t.Fatal(err)
	}
	if c.Exists("/a/1") {
		t.Fatal("deleted file still exists")
	}
	if err := c.Delete("/a/1"); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestCustomPlacementPolicy(t *testing.T) {
	// A policy pinning everything to node2/node3 — the mechanism VectorH
	// instruments.
	pin := policyFunc(func(path, writer string, replicas int, exclude, alive []string) []string {
		var out []string
		for _, n := range []string{"node2", "node3"} {
			if !contains(exclude, n) && contains(alive, n) {
				out = append(out, n)
			}
		}
		if len(out) > replicas {
			out = out[:replicas]
		}
		return out
	})
	c := NewCluster([]string{"node1", "node2", "node3", "node4"}, Config{BlockSize: 64, Replication: 2, Policy: pin})
	c.WriteFile("/f", "node1", make([]byte, 128))
	locs, _ := c.BlockLocations("/f")
	for i, l := range locs {
		if len(l) != 2 || l[0] != "node2" || l[1] != "node3" {
			t.Fatalf("block %d placed at %v", i, l)
		}
	}
}

type policyFunc func(path, writer string, replicas int, exclude, alive []string) []string

func (f policyFunc) ChooseTarget(path, writer string, replicas int, exclude, alive []string) []string {
	return f(path, writer, replicas, exclude, alive)
}

func TestIsLocal(t *testing.T) {
	c := newTestCluster(5, 64)
	c.WriteFile("/f", "node1", make([]byte, 128))
	r, _ := c.Open("/f", "node1")
	if !r.IsLocal("node1", 0, 128) {
		t.Fatal("writer should be fully local")
	}
	locs, _ := c.BlockLocations("/f")
	holders := map[string]bool{}
	for _, n := range locs[0] {
		holders[n] = true
	}
	for _, n := range c.Nodes() {
		if !holders[n] {
			if r.IsLocal(n, 0, 64) {
				t.Fatalf("%s should not be local for block 0", n)
			}
			return
		}
	}
}

func TestNoAliveNodesWriteFails(t *testing.T) {
	c := newTestCluster(1, 64)
	c.KillNode("node1")
	w, _ := c.Create("/f", "node1")
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("write with no alive nodes should fail")
	}
}

// TestTruncateThenAppend: cutting a file back drops whole blocks and
// shortens the straddling one, and a later append continues at the new end.
func TestTruncateThenAppend(t *testing.T) {
	c := newTestCluster(3, 64)
	data := make([]byte, 300)
	rand.New(rand.NewSource(2)).Read(data)
	if err := c.WriteFile("/f", "node1", data); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{300, 200, 128, 70, 0} {
		if err := c.Truncate("/f", size); err != nil {
			t.Fatalf("truncate to %d: %v", size, err)
		}
		locs, _ := c.BlockLocations("/f")
		if sz, _ := c.Size("/f"); sz != size || len(locs) != int((size+63)/64) {
			t.Fatalf("after truncate to %d: size %d, %d blocks", size, sz, len(locs))
		}
		w, err := c.Append("/f", "node1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data[size:]); err != nil {
			t.Fatal(err)
		}
		if got, err := c.ReadAll("/f", "node1"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("after truncate to %d and re-append: err=%v, content differs=%v", size, err, !bytes.Equal(got, data))
		}
	}
	if err := c.Truncate("/f", 301); !errors.Is(err, ErrReadRange) {
		t.Fatalf("truncate past the end: %v", err)
	}
	if err := c.Truncate("/missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncate of a missing file: %v", err)
	}
}
