// Package hdfs simulates the subset of the Hadoop Distributed File System
// that VectorH depends on (§3 of the paper): an append-only file system
// whose files are split into fixed-size blocks replicated across datanodes,
// a namenode tracking block locations, a pluggable BlockPlacementPolicy —
// the hook VectorH instruments to control locality — re-replication after
// node failures, and short-circuit (local) versus remote read accounting.
//
// The simulation is in-process and in-memory: replica placement, policy
// decisions, failure handling and locality accounting are faithful to HDFS
// semantics; bytes live in one copy per block since replicas are identical.
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Errors returned by cluster operations.
var (
	ErrNotFound  = errors.New("hdfs: file not found")
	ErrExists    = errors.New("hdfs: file already exists")
	ErrNoNodes   = errors.New("hdfs: no alive datanodes")
	ErrDeadNode  = errors.New("hdfs: datanode not alive")
	ErrReadRange = errors.New("hdfs: read beyond end of file")
)

// BlockID identifies one HDFS block cluster-wide.
type BlockID int64

// BlockPlacementPolicy decides which datanodes receive the replicas of a new
// block — the interface VectorH registers its instrumented policy on.
// ChooseTarget receives the file path (policies key decisions off it), the
// writing node ("" for an external client), the wanted replica count, nodes
// to exclude (already holding a replica) and the currently alive nodes. It
// returns up to `replicas` distinct target node names.
type BlockPlacementPolicy interface {
	ChooseTarget(path, writer string, replicas int, exclude, alive []string) []string
}

// DefaultPolicy mimics stock HDFS: first replica on the writer (when the
// writer is a datanode), the rest pseudo-randomly spread. Choices are stable
// per file, matching HDFS's per-file spreading described in the paper.
type DefaultPolicy struct {
	mu   sync.Mutex
	rng  *rand.Rand
	memo map[string][]string
}

// NewDefaultPolicy returns a DefaultPolicy with a deterministic seed.
func NewDefaultPolicy(seed int64) *DefaultPolicy {
	return &DefaultPolicy{rng: rand.New(rand.NewSource(seed)), memo: make(map[string][]string)}
}

// ChooseTarget implements BlockPlacementPolicy.
func (p *DefaultPolicy) ChooseTarget(path, writer string, replicas int, exclude, alive []string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	excluded := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		excluded[e] = true
	}
	var out []string
	take := func(n string) {
		if len(out) < replicas && !excluded[n] {
			out = append(out, n)
			excluded[n] = true
		}
	}
	if memo, ok := p.memo[path]; ok {
		for _, n := range memo {
			for _, a := range alive {
				if a == n {
					take(n)
				}
			}
		}
	} else {
		if writer != "" {
			for _, a := range alive {
				if a == writer {
					take(writer)
				}
			}
		}
		shuffled := append([]string(nil), alive...)
		sort.Strings(shuffled)
		p.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, n := range shuffled {
			take(n)
		}
		p.memo[path] = append([]string(nil), out...)
		return out
	}
	// Memoized targets may have died; fill the remainder randomly.
	shuffled := append([]string(nil), alive...)
	sort.Strings(shuffled)
	p.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, n := range shuffled {
		take(n)
	}
	return out
}

// Config parameterizes a simulated cluster.
type Config struct {
	BlockSize   int                  // bytes per block; default 4 MiB
	Replication int                  // default replica count; default 3
	Policy      BlockPlacementPolicy // default: NewDefaultPolicy(1)
}

func (c *Config) fill() {
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Policy == nil {
		c.Policy = NewDefaultPolicy(1)
	}
}

// Stats aggregates read traffic by locality, the measure behind the paper's
// claim that "VectorH in general achieves the situation that all table IOs
// are short-circuited".
type Stats struct {
	LocalBytesRead  int64 // short-circuit reads: reader node held a replica
	RemoteBytesRead int64 // reads served by another datanode
	BytesWritten    int64
	BlocksCreated   int64
	BlocksRemoved   int64
	ReReplications  int64 // replicas copied due to failures
}

type blockInfo struct {
	id    BlockID
	data  []byte
	locs  []string // alive nodes holding a replica
	path  string
	index int // position within the file
}

type file struct {
	path        string
	blocks      []*blockInfo
	size        int64
	replication int
}

// Cluster is the simulated HDFS service: namenode plus datanodes.
type Cluster struct {
	mu     sync.Mutex
	cfg    Config
	alive  map[string]bool
	order  []string // insertion order of nodes, for stable reports
	files  map[string]*file
	nextID BlockID
	stats  Stats
	under  []*blockInfo // under-replicated blocks pending re-replication
}

// NewCluster creates a cluster with the given datanodes.
func NewCluster(nodes []string, cfg Config) *Cluster {
	cfg.fill()
	c := &Cluster{cfg: cfg, alive: make(map[string]bool), files: make(map[string]*file)}
	for _, n := range nodes {
		c.alive[n] = true
		c.order = append(c.order, n)
	}
	return c
}

// Nodes returns the alive datanodes in insertion order.
func (c *Cluster) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveNodesLocked()
}

func (c *Cluster) aliveNodesLocked() []string {
	var out []string
	for _, n := range c.order {
		if c.alive[n] {
			out = append(out, n)
		}
	}
	return out
}

// BlockSize returns the configured block size.
func (c *Cluster) BlockSize() int { return c.cfg.BlockSize }

// Replication returns the configured default replication degree.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// Stats returns a snapshot of the traffic counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the traffic counters.
func (c *Cluster) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// KillNode marks a datanode dead, drops its replicas and queues affected
// blocks for re-replication (run ReReplicate to process the queue, as the
// namenode would in the background).
func (c *Cluster) KillNode(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[name] {
		return
	}
	c.alive[name] = false
	for _, f := range c.files {
		for _, b := range f.blocks {
			for i, loc := range b.locs {
				if loc == name {
					b.locs = append(b.locs[:i], b.locs[i+1:]...)
					c.under = append(c.under, b)
					break
				}
			}
		}
	}
}

// ReReplicate processes the under-replicated queue, asking the placement
// policy for new targets. It returns the number of replicas created.
func (c *Cluster) ReReplicate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	created := 0
	pending := c.under
	c.under = nil
	for _, b := range pending {
		f, ok := c.files[b.path]
		if !ok { // file deleted meanwhile
			continue
		}
		want := f.replication
		for len(b.locs) < want {
			targets := c.cfg.Policy.ChooseTarget(b.path, "", want, b.locs, c.aliveNodesLocked())
			added := false
			for _, t := range targets {
				if c.alive[t] && !contains(b.locs, t) && len(b.locs) < want {
					b.locs = append(b.locs, t)
					created++
					c.stats.ReReplications++
					added = true
				}
			}
			if !added {
				break // not enough alive nodes
			}
		}
	}
	return created
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Create creates a new file written by the given node and returns a Writer.
func (c *Cluster) Create(path, writer string) (*Writer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	f := &file{path: path, replication: c.cfg.Replication}
	c.files[path] = f
	return &Writer{c: c, f: f, writer: writer}, nil
}

// Append opens an existing file (or creates it) for appending.
func (c *Cluster) Append(path, writer string) (*Writer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		f = &file{path: path, replication: c.cfg.Replication}
		c.files[path] = f
	}
	return &Writer{c: c, f: f, writer: writer}, nil
}

// SetReplication overrides the replica count for one file (VectorH sets 1
// for temporary spill files). Existing blocks are trimmed or queued for
// re-replication as needed.
func (c *Cluster) SetReplication(path string, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	f.replication = n
	for _, b := range f.blocks {
		if len(b.locs) > n {
			b.locs = b.locs[:n]
		} else if len(b.locs) < n {
			c.under = append(c.under, b)
		}
	}
	return nil
}

// Delete removes a file and its blocks.
func (c *Cluster) Delete(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	c.stats.BlocksRemoved += int64(len(f.blocks))
	delete(c.files, path)
	return nil
}

// Truncate cuts a file back to size bytes, as HDFS truncate does: whole
// blocks past the new end go away and the block straddling it is shortened.
// A writer that failed part-way undoes its appends with it.
func (c *Cluster) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if size < 0 || size > f.size {
		return fmt.Errorf("%w: truncate %s to %d of %d bytes", ErrReadRange, path, size, f.size)
	}
	bs := int64(c.cfg.BlockSize)
	keep := int((size + bs - 1) / bs)
	c.stats.BlocksRemoved += int64(len(f.blocks) - keep)
	f.blocks = f.blocks[:keep]
	if keep > 0 {
		last := f.blocks[keep-1]
		last.data = last.data[:size-int64(keep-1)*bs]
	}
	f.size = size
	return nil
}

// Exists reports whether a file exists.
func (c *Cluster) Exists(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.files[path]
	return ok
}

// Size returns the byte length of a file.
func (c *Cluster) Size(path string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f.size, nil
}

// List returns all file paths with the given prefix, sorted.
func (c *Cluster) List(prefix string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for p := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// BlockLocations returns, per block of the file, the nodes holding replicas.
// This is the namenode query the engine uses to compute data locality.
func (c *Cluster) BlockLocations(path string) ([][]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = append([]string(nil), b.locs...)
	}
	return out, nil
}

// Open returns a Reader for the file; reads performed by `reader` count as
// short-circuit (local) when that node holds a replica of the block read.
func (c *Cluster) Open(path, reader string) (*Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return &Reader{c: c, f: f, reader: reader}, nil
}

// ReadAll reads a whole file from the given node.
func (c *Cluster) ReadAll(path, reader string) ([]byte, error) {
	r, err := c.Open(path, reader)
	if err != nil {
		return nil, err
	}
	sz, _ := c.Size(path)
	buf := make([]byte, sz)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFile creates (replacing if present) a file with the given contents.
func (c *Cluster) WriteFile(path, writer string, data []byte) error {
	if c.Exists(path) {
		if err := c.Delete(path); err != nil {
			return err
		}
	}
	w, err := c.Create(path, writer)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Writer appends to an HDFS file, cutting fixed-size blocks as data arrives.
type Writer struct {
	c      *Cluster
	f      *file
	writer string
	closed bool
}

// Write appends p to the file. Data lands in the last (partial) block first,
// then new blocks are allocated via the placement policy.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("hdfs: write on closed writer")
	}
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	written := len(p)
	for len(p) > 0 {
		var last *blockInfo
		if n := len(w.f.blocks); n > 0 {
			if b := w.f.blocks[n-1]; len(b.data) < c.cfg.BlockSize {
				last = b
			}
		}
		if last == nil {
			alive := c.aliveNodesLocked()
			if len(alive) == 0 {
				return 0, ErrNoNodes
			}
			targets := c.cfg.Policy.ChooseTarget(w.f.path, w.writer, w.f.replication, nil, alive)
			if len(targets) == 0 {
				return 0, ErrNoNodes
			}
			last = &blockInfo{id: c.nextID, path: w.f.path, index: len(w.f.blocks), locs: targets}
			c.nextID++
			c.stats.BlocksCreated++
			w.f.blocks = append(w.f.blocks, last)
		}
		room := c.cfg.BlockSize - len(last.data)
		if room > len(p) {
			room = len(p)
		}
		if need := len(last.data) + room; need > cap(last.data) {
			// Double up to the block size: a block filled by many small
			// appends is copied twice over, not append's five times.
			grown := make([]byte, len(last.data), min(max(2*cap(last.data), need), c.cfg.BlockSize))
			copy(grown, last.data)
			last.data = grown
		}
		last.data = append(last.data, p[:room]...)
		p = p[room:]
		w.f.size += int64(room)
		c.stats.BytesWritten += int64(room)
	}
	return written, nil
}

// Close finalizes the writer.
func (w *Writer) Close() error {
	w.closed = true
	return nil
}

// Reader reads a file with locality accounting.
type Reader struct {
	c      *Cluster
	f      *file
	reader string
}

// ReadAt reads len(p) bytes at offset off. Each touched block is accounted
// as a local (short-circuit) or remote read depending on whether the reading
// node holds a replica.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if off < 0 || off+int64(len(p)) > r.f.size {
		return 0, fmt.Errorf("%w: [%d,+%d) of %d", ErrReadRange, off, len(p), r.f.size)
	}
	n := 0
	bs := int64(c.cfg.BlockSize)
	for n < len(p) {
		bi := int((off + int64(n)) / bs)
		bo := int((off + int64(n)) % bs)
		b := r.f.blocks[bi]
		take := len(b.data) - bo
		if take > len(p)-n {
			take = len(p) - n
		}
		copy(p[n:n+take], b.data[bo:bo+take])
		if r.reader != "" && contains(b.locs, r.reader) {
			c.stats.LocalBytesRead += int64(take)
		} else {
			c.stats.RemoteBytesRead += int64(take)
		}
		n += take
	}
	return n, nil
}

// IsLocal reports whether the byte range [off, off+length) is fully replica-
// local to the given node; the IO scheduler uses it to route requests.
func (r *Reader) IsLocal(node string, off, length int64) bool {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	bs := int64(c.cfg.BlockSize)
	for cur := off; cur < off+length; {
		bi := int(cur / bs)
		if bi >= len(r.f.blocks) || !contains(r.f.blocks[bi].locs, node) {
			return false
		}
		cur = (int64(bi) + 1) * bs
	}
	return true
}
