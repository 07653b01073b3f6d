// Package core assembles the VectorH engine: a simulated HDFS cluster hosting
// N worker processes, a session master coordinating transactions and parallel
// query optimization, column-store partitions with instrumented block
// placement, PDT-based trickle updates, and the distributed execution runtime.
// It is the integration point of every substrate package and the
// implementation behind the public vectorh API.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vectorh/internal/affinity"
	"vectorh/internal/colstore"
	"vectorh/internal/hdfs"
	"vectorh/internal/mpi"
	"vectorh/internal/obs"
	"vectorh/internal/pdt"
	"vectorh/internal/rewriter"
	"vectorh/internal/txn"
	"vectorh/internal/vector"
	"vectorh/internal/wal"
)

// Config parameterizes an engine.
type Config struct {
	Nodes          []string        // datanode/worker names; default 3 nodes
	ThreadsPerNode int             // exchange consumer threads; default 2
	Replication    int             // HDFS replication degree; default 3
	BlockSize      int             // HDFS block size; default 1 MiB
	Format         colstore.Format // column store format
	MsgBytes       int             // exchange message size
	PDTFlushBytes  int             // update-propagation trigger; default 8 MiB

	// BlockCacheBytes bounds the engine-shared decoded-block cache
	// (0 = default 64 MiB, negative = disabled). Experiments that measure
	// raw decode work per query disable it.
	BlockCacheBytes int64
}

func (c *Config) fill() {
	if len(c.Nodes) == 0 {
		c.Nodes = []string{"node1", "node2", "node3"}
	}
	if c.ThreadsPerNode <= 0 {
		c.ThreadsPerNode = 2
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.PDTFlushBytes <= 0 {
		c.PDTFlushBytes = 8 << 20
	}
}

// Table is one catalog entry.
type Table struct {
	Info  rewriter.TableInfo
	Parts []*Partition

	// A clustered table is in ascending Info.ClusteredOn order per partition
	// until a write places a key below the highest its partition holds (high);
	// unordered is set for good before that write commits, and Engine.Table
	// stops reporting the order.
	high      []int64
	unordered atomic.Bool
}

// Replicated reports whether the table is stored replicated on every node.
func (t *Table) Replicated() bool { return t.Info.PartitionKey == "" }

// place records clustered key k as appended to partition p. Aborted writes
// count too, which can only err toward unordered. The caller holds writeMu.
func (t *Table) place(p int, k int64) {
	if k < t.high[p] {
		t.unordered.Store(true)
	}
	t.high[p] = max(t.high[p], k)
}

// Partition is one table partition's storage and delta state. Its metadata
// is copy-on-write: writers (bulk load, update propagation) build a clone
// and publish it with a pointer swap, while every open scan holds a
// refcounted reference to the generation it started on. A file that a
// publish dropped is deleted only once no generation at or before the one
// that dropped it is pinned, so concurrent readers never observe a
// half-mutated block directory or a vanished chunk file — however many
// generations were published since they opened.
type Partition struct {
	Key         txn.PartKey
	Responsible string // node owning the partition's WAL and PDTs

	// mu is read-mostly: scans pin the current generation and snapshot the
	// PDT masters under RLock (so concurrent scan opens never serialize on
	// each other), while writers publish a new generation and reset PDTs
	// under the exclusive lock.
	mu  sync.RWMutex
	cur *metaGen

	// lifeMu guards retired and every generation's refs and dead. It is
	// taken inside mu, never around it.
	lifeMu  sync.Mutex
	retired []*metaGen // superseded generations not yet reaped, oldest first
}

// metaGen is one refcounted metadata generation.
type metaGen struct {
	meta *colstore.PartitionMeta
	refs int64    // open scans pinning this generation
	dead []string // files the publish that superseded this generation dropped
}

// CurrentMeta returns the partition's current storage metadata generation.
// The returned value is immutable; writers publish successors via clone +
// pointer swap.
func (p *Partition) CurrentMeta() *colstore.PartitionMeta {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cur.meta
}

// pinLocked pins the current metadata generation for an open scan. Caller
// holds p.mu (shared or exclusive).
func (p *Partition) pinLocked() *metaGen {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	p.cur.refs++
	return p.cur
}

// release unpins a metadata generation and deletes the files no remaining
// pin can reach.
func (p *Partition) release(g *metaGen, fs *hdfs.Cluster) {
	p.lifeMu.Lock()
	g.refs--
	debugCheckRefs(g.refs)
	deletable := p.reapLocked()
	p.lifeMu.Unlock()
	deleteAll(fs, deletable)
}

// reapLocked pops unpinned generations off the front of retired and returns
// their dead files. A generation's dead files may still be read through any
// older generation (they share chunk files), which is why only the front is
// ever popped: once it is unpinned, nothing at or before it is. Caller holds
// p.lifeMu.
func (p *Partition) reapLocked() (deletable []string) {
	for len(p.retired) > 0 && p.retired[0].refs == 0 {
		deletable = append(deletable, p.retired[0].dead...)
		p.retired = slices.Delete(p.retired, 0, 1)
	}
	return deletable
}

// publishLocked swaps in a new metadata generation, retiring the old one.
// deadFiles lists files the new generation no longer references; the ones no
// pinned scan can still reach (all of them, when none is open) are returned
// for deletion, the rest go with the release that unpins them. Caller holds
// p.mu exclusively.
func (p *Partition) publishLocked(newMeta *colstore.PartitionMeta, deadFiles []string) (deletable []string) {
	p.lifeMu.Lock()
	defer p.lifeMu.Unlock()
	p.cur.dead = deadFiles
	p.retired = append(p.retired, p.cur)
	p.cur = &metaGen{meta: newMeta}
	return p.reapLocked()
}

func deleteAll(fs *hdfs.Cluster, files []string) {
	for _, f := range files {
		if fs.Exists(f) {
			fs.Delete(f)
		}
	}
}

// Engine is the running system: cluster substrate plus catalog and
// transaction state. One Engine simulates the whole VectorH deployment; the
// session master is Nodes()[0] unless failures move it.
type Engine struct {
	// mu guards the catalog and worker-set views. It is read-mostly: query
	// compilation, scan setup and stats reads take the shared lock, while
	// DDL, node failure and row-count refreshes take it exclusively.
	mu  sync.RWMutex
	cfg Config

	// writeMu serializes mutators of table storage — bulk load, trickle DML,
	// update propagation, node failure handling — against each other. Reads
	// (scans) never take it: they run against refcounted copy-on-write
	// snapshots of partition metadata and PDT masters, so the engine
	// supports N concurrent readers plus one writer at a time.
	writeMu sync.Mutex

	fs     *hdfs.Cluster
	net    *mpi.Network
	policy *placementPolicy
	mgr    *txn.Manager

	active []string // current worker set, in node-index order
	tables map[string]*Table

	// scanIO is the engine-wide scan work since startup, folded in when each
	// scan closes.
	scanMu sync.Mutex
	scanIO obs.ScanIO

	// catalogEpoch counts catalog- and data-changing events (DDL, DML
	// commits, bulk loads, propagation, node failure). Plan caches key on it:
	// a cached plan compiled at an older epoch is discarded, so stale plans
	// are never served.
	catalogEpoch atomic.Int64

	// PDT flush propagation counters (§5 "Update Propagation").
	pdtFlushes      atomic.Int64
	pdtFlushEntries atomic.Int64
	// shippedEntries counts log-shipping deliveries for replicated tables
	// (§6 "Log Shipping").
	shippedEntries atomic.Int64

	// Bulk-write counters, bumped once per Load or propagation append: rows
	// and wall-clock taken, raw value bytes in and encoded bytes out.
	loadRows         atomic.Int64
	loadNanos        atomic.Int64
	loadRawBytes     atomic.Int64
	loadEncodedBytes atomic.Int64

	// blockCache is the engine-shared decoded-block cache (nil = disabled).
	blockCache *colstore.BlockCache

	// reg is the engine's metrics registry: every subsystem (scans, block
	// cache, PDT flushes, and — via Obs() — the plan cache and serving
	// layer) registers here, so one Prometheus scrape covers the system.
	reg *obs.Registry
}

// ScanStats returns the engine-wide physical scan work since startup.
// Experiments diff two snapshots around a query to attribute blocks read,
// compressed bytes decoded, and spans dropped by scan-side predicates.
func (e *Engine) ScanStats() obs.ScanIO {
	e.scanMu.Lock()
	defer e.scanMu.Unlock()
	return e.scanIO
}

// addScanIO folds one closed scan's work into the engine-wide record.
func (e *Engine) addScanIO(io obs.ScanIO) {
	e.scanMu.Lock()
	e.scanIO.Add(io)
	e.scanMu.Unlock()
}

// CatalogEpoch returns the current catalog epoch. Every DDL statement, DML
// commit, bulk load, PDT propagation and topology change bumps it; compiled
// plans are valid only for the epoch they were built at.
func (e *Engine) CatalogEpoch() int64 { return e.catalogEpoch.Load() }

// bumpEpoch advances the catalog epoch after a catalog- or data-changing
// event.
func (e *Engine) bumpEpoch() { e.catalogEpoch.Add(1) }

// BlockCacheStats reports the shared decoded-block cache's effectiveness
// (zero value when the cache is disabled).
func (e *Engine) BlockCacheStats() colstore.BlockCacheStats {
	if e.blockCache == nil {
		return colstore.BlockCacheStats{}
	}
	return e.blockCache.Stats()
}

// EngineStats is a batched snapshot of the engine's observability counters:
// one call reads everything the serving layer reports, instead of each
// stats request taking Engine.mu once per counter.
type EngineStats struct {
	Scan obs.ScanIO
	// ScanCacheHit repeats Scan.CacheHits for bench/trace.go, which reads
	// it under this name.
	ScanCacheHit int64
	CatalogEpoch int64
	BlockCache   colstore.BlockCacheStats
	Tables       int
	Workers      int
}

// Stats returns a batched engine stats snapshot. The scan record takes its
// own lock and the other counters are atomics; only the catalog sizes take
// the (shared) engine lock, once.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	tables, workers := len(e.tables), len(e.active)
	e.mu.RUnlock()
	scan := e.ScanStats()
	return EngineStats{
		Scan:         scan,
		ScanCacheHit: scan.CacheHits,
		CatalogEpoch: e.CatalogEpoch(),
		BlockCache:   e.BlockCacheStats(),
		Tables:       tables,
		Workers:      workers,
	}
}

// TableStorage is one table's storage footprint: raw value bytes versus
// encoded bytes on disk, summed over all partitions' current metadata
// generations.
type TableStorage struct {
	Table        string `json:"table"`
	RawBytes     int64  `json:"raw_bytes"`
	EncodedBytes int64  `json:"encoded_bytes"`
}

// TableStorage reports the per-table compression footprint, sorted by table
// name. Tables with no flushed blocks report zero bytes.
func (e *Engine) TableStorage() []TableStorage {
	e.mu.RLock()
	tabs := make(map[string]*Table, len(e.tables))
	for n, t := range e.tables {
		tabs[n] = t
	}
	e.mu.RUnlock()
	names := make([]string, 0, len(tabs))
	for n := range tabs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TableStorage, 0, len(names))
	for _, n := range names {
		var raw, enc int64
		for _, p := range tabs[n].Parts {
			r, c := p.CurrentMeta().StorageBytes()
			raw += r
			enc += c
		}
		out = append(out, TableStorage{Table: n, RawBytes: raw, EncodedBytes: enc})
	}
	return out
}

// Obs returns the engine's metrics registry. Never nil: higher layers (plan
// cache, server admission) register their metrics into it so the whole
// system shares one exposition endpoint.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// registerMetrics binds the engine's own counters — its scan record and its
// atomics — into the registry as scrape-time callbacks; nothing is
// double-counted and the hot paths write only those counters.
func (e *Engine) registerMetrics() {
	r := e.reg
	r.CounterFunc("vectorh_scan_blocks_read_total", "Column blocks fetched and decompressed.",
		func() float64 { return float64(e.ScanStats().BlocksRead) })
	r.CounterFunc("vectorh_scan_bytes_decoded_total", "Compressed payload bytes decoded by scans.",
		func() float64 { return float64(e.ScanStats().BytesDecoded) })
	r.CounterFunc("vectorh_scan_spans_pruned_total", "Row spans rejected before any payload column decode.",
		func() float64 { return float64(e.ScanStats().SpansPruned) })
	r.CounterFunc("vectorh_scan_cache_hits_total", "Scan block reads served by the decoded-block cache.",
		func() float64 { return float64(e.ScanStats().CacheHits) })
	r.CounterFunc("vectorh_scan_bytes_skipped_total", "Compressed bytes of projected blocks scans never decoded.",
		func() float64 { return float64(e.ScanStats().BytesSkipped) })
	r.CounterFunc("vectorh_scan_bytes_materialized_total", "Value bytes scans produced into execution memory.",
		func() float64 { return float64(e.ScanStats().BytesMaterialized) })
	r.CounterFunc("vectorh_scan_delta_spans_total", "Row spans scans served with PDT deltas applied.",
		func() float64 { return float64(e.ScanStats().DeltaSpans) })
	r.CounterFunc("vectorh_scan_deleted_rows_total", "Stable rows of those spans the PDT deltas delete.",
		func() float64 { return float64(e.ScanStats().DeletedRows) })
	r.CounterFunc("vectorh_block_cache_hits_total", "Decoded-block cache hits.",
		func() float64 { return float64(e.BlockCacheStats().Hits) })
	r.CounterFunc("vectorh_block_cache_misses_total", "Decoded-block cache misses.",
		func() float64 { return float64(e.BlockCacheStats().Misses) })
	r.CounterFunc("vectorh_block_cache_evictions_total", "Decoded-block cache evictions.",
		func() float64 { return float64(e.BlockCacheStats().Evictions) })
	r.GaugeFunc("vectorh_block_cache_bytes", "Decoded bytes resident in the block cache.",
		func() float64 { return float64(e.BlockCacheStats().Bytes) })
	r.CounterFunc("vectorh_pdt_flushes_total", "PDT flush propagations to stable storage.",
		func() float64 { return float64(e.pdtFlushes.Load()) })
	r.CounterFunc("vectorh_pdt_flush_entries_total", "PDT entries merged into blocks by flush propagation.",
		func() float64 { return float64(e.pdtFlushEntries.Load()) })
	r.CounterFunc("vectorh_load_rows_total", "Rows written to stable storage by bulk loads and propagation appends.",
		func() float64 { return float64(e.loadRows.Load()) })
	r.CounterFunc("vectorh_load_seconds_total", "Wall-clock seconds spent in bulk loads and propagation appends.",
		func() float64 { return time.Duration(e.loadNanos.Load()).Seconds() })
	r.CounterFunc("vectorh_load_raw_bytes_total", "Raw value bytes handed to the block encoders by loads.",
		func() float64 { return float64(e.loadRawBytes.Load()) })
	r.CounterFunc("vectorh_load_encoded_bytes_total", "Encoded block bytes loads added to storage.",
		func() float64 { return float64(e.loadEncodedBytes.Load()) })
	r.CounterFunc("vectorh_log_shipped_entries_total", "Log-shipping deliveries for replicated tables.",
		func() float64 { return float64(e.shippedEntries.Load()) })
	r.GaugeFunc("vectorh_catalog_epoch", "Catalog epoch (bumped by DDL, DML commits, loads, topology changes).",
		func() float64 { return float64(e.CatalogEpoch()) })
	r.GaugeFunc("vectorh_tables", "Tables in the catalog.",
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.tables))
		})
	r.GaugeFunc("vectorh_workers", "Active worker nodes.",
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.active))
		})
}

// New creates and starts an engine: it brings up the simulated HDFS, fixes
// the worker set, and initializes the transaction manager with a global WAL.
func New(cfg Config) (*Engine, error) {
	cfg.fill()
	e := &Engine{cfg: cfg, tables: make(map[string]*Table), reg: obs.NewRegistry()}
	e.registerMetrics()
	e.policy = &placementPolicy{targets: make(map[string][]string), fallback: hdfs.NewDefaultPolicy(7)}
	e.fs = hdfs.NewCluster(cfg.Nodes, hdfs.Config{
		BlockSize:   cfg.BlockSize,
		Replication: cfg.Replication,
		Policy:      e.policy,
	})
	// Workers are indexed in name order, whatever order cfg.Nodes lists
	// them in: partition responsibility, affinity placement and every stored
	// layout follow this order.
	e.active = slices.Sorted(slices.Values(cfg.Nodes))
	e.net = mpi.NewNetwork(len(e.active))
	e.mgr = txn.NewManager(wal.Open(e.fs, "/wal/global", e.master()))
	switch {
	case cfg.BlockCacheBytes == 0:
		e.blockCache = colstore.NewBlockCache(64 << 20)
	case cfg.BlockCacheBytes > 0:
		e.blockCache = colstore.NewBlockCache(cfg.BlockCacheBytes)
	}
	e.mgr.OnCommit = func(part txn.PartKey, entries []pdt.Entry, epoch int64) {
		// Every DML commit invalidates cached plans: statistics a compiled
		// plan baked in (row counts, column ranges) may have shifted.
		e.bumpEpoch()
		// Log shipping: replicated-table commits are broadcast to every
		// worker so their cached PDT images stay current. In this
		// single-process simulation all workers share the master PDT
		// state, so shipping reduces to accounting.
		table := strings.SplitN(string(part), "/", 2)[0]
		e.mu.RLock()
		if t, ok := e.tables[table]; ok && t.Replicated() {
			e.shippedEntries.Add(int64(len(entries)) * int64(len(e.active)-1))
		}
		e.mu.RUnlock()
	}
	return e, nil
}

// master returns the session-master node name.
func (e *Engine) master() string { return e.active[0] }

// Nodes returns the current worker set.
func (e *Engine) Nodes() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.active...)
}

// FS exposes the simulated HDFS (benchmarks read its IO counters).
func (e *Engine) FS() *hdfs.Cluster { return e.fs }

// Net exposes the simulated network fabric.
func (e *Engine) Net() *mpi.Network { return e.net }

// Manager exposes the transaction manager.
func (e *Engine) Manager() *txn.Manager { return e.mgr }

// Table returns catalog metadata, satisfying rewriter.Catalog.
func (e *Engine) Table(name string) (rewriter.TableInfo, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return rewriter.TableInfo{}, fmt.Errorf("core: unknown table %q", name)
	}
	info := t.Info
	if t.unordered.Load() {
		info.ClusteredOn = ""
	}
	return info, nil
}

// TableSchema satisfies plan.Catalog.
func (e *Engine) TableSchema(name string) (vector.Schema, error) {
	info, err := e.Table(name)
	if err != nil {
		return nil, err
	}
	return info.Schema, nil
}

// partKey names the txn partition of a table partition.
func partKey(table string, part int) txn.PartKey {
	return txn.PartKey(fmt.Sprintf("%s/%d", table, part))
}

// CreateTable registers a table: partition metadata, affinity-steered HDFS
// placement, per-partition WALs at the responsible nodes, and empty PDTs.
// A PartitionKey of "" creates a replicated table (stored once, replicated
// to every node).
func (e *Engine) CreateTable(info rewriter.TableInfo) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[info.Name]; dup {
		return fmt.Errorf("core: table %q exists", info.Name)
	}
	if info.PartitionKey == "" {
		info.Partitions = 1
	} else if info.Partitions <= 0 {
		info.Partitions = len(e.active)
	}
	if info.PartitionKey != "" {
		f, err := info.Schema.Field(info.PartitionKey)
		if err != nil {
			return err
		}
		if f.Type.Kind != vector.Int32 && f.Type.Kind != vector.Int64 {
			return fmt.Errorf("core: partition key %q must be an integer column", info.PartitionKey)
		}
	}
	t := &Table{Info: info, high: slices.Repeat([]int64{math.MinInt64}, info.Partitions)}

	// Affinity mapping: identical for every table of the same partition
	// count, which co-locates matching partitions (Figure 2's R/S pairs).
	var partNames []string
	for p := 0; p < info.Partitions; p++ {
		partNames = append(partNames, fmt.Sprintf("p%04d", p))
	}
	var aff map[string][]string
	if info.PartitionKey == "" {
		// Replicated: one partition stored at every node.
		aff = map[string][]string{"p0000": append([]string(nil), e.active...)}
	} else {
		aff = affinity.InitialMapping(partNames, e.active, e.cfg.Replication)
	}
	for p := 0; p < info.Partitions; p++ {
		meta := colstore.NewPartitionMeta(info.Name, p, info.Schema, e.cfg.Format)
		locs := aff[partNames[p]]
		resp := locs[0]
		e.policy.set(meta.Dir(), locs)
		part := &Partition{cur: &metaGen{meta: meta}, Key: partKey(info.Name, p), Responsible: resp}
		walPath := fmt.Sprintf("/wal/%s/p%04d", info.Name, p)
		e.mgr.AddPartition(part.Key, 0, wal.Open(e.fs, walPath, resp))
		t.Parts = append(t.Parts, part)
	}
	e.tables[info.Name] = t
	e.registerTableMetrics(info.Name)
	e.bumpEpoch()
	return nil
}

// metricName sanitizes a table name into a Prometheus metric-name suffix
// (the registry has no label support, so per-table metrics fold the table
// name into the metric name).
func metricName(s string) string {
	out := []byte(s)
	for i, c := range out {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			out[i] = '_'
		}
	}
	return string(out)
}

// registerTableMetrics binds a per-table compression-ratio gauge: raw value
// bytes over encoded bytes on disk, across all partitions of the current
// metadata generations. A ratio of 1 means incompressible; 0 means the
// table holds no flushed blocks yet (or was dropped).
func (e *Engine) registerTableMetrics(name string) {
	e.reg.GaugeFunc("vectorh_table_compression_ratio_"+metricName(name),
		"Raw-to-encoded storage ratio of table "+name+".",
		func() float64 {
			e.mu.RLock()
			t, ok := e.tables[name]
			e.mu.RUnlock()
			if !ok {
				return 0
			}
			var raw, enc int64
			for _, p := range t.Parts {
				r, c := p.CurrentMeta().StorageBytes()
				raw += r
				enc += c
			}
			if enc == 0 {
				return 0
			}
			return float64(raw) / float64(enc)
		})
}

// TableRows returns the visible row count of a table, read live from the
// partitions' PDTs: the one row count the planner's estimates start from.
func (e *Engine) TableRows(name string) (int64, error) {
	e.mu.RLock()
	t, ok := e.tables[name]
	e.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", name)
	}
	var total int64
	for _, p := range t.Parts {
		n, err := e.mgr.SizeOf(p.Key)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ColumnRange folds the MinMax block summaries of an integer-backed column
// (ints, dates and decimals, in storage units) into a single [lo, hi] value
// range across all partitions. It summarises the stable image only — rows
// inserted or modified in the PDTs are not in it — and feeds estimates
// only, never a skip decision. ok is false when the table or column is
// unknown or no block carries a summary — expr.Selectivity then charges the
// column's conjuncts its 1/3 guess instead of trusting a zero range.
func (e *Engine) ColumnRange(table, col string) (lo, hi int64, ok bool) {
	e.mu.RLock()
	t, found := e.tables[table]
	e.mu.RUnlock()
	if !found {
		return 0, 0, false
	}
	for _, p := range t.Parts {
		cm, err := p.CurrentMeta().Col(col)
		if err != nil {
			return 0, 0, false
		}
		plo, phi, pok := cm.NumRange()
		switch {
		case !pok:
		case !ok:
			lo, hi, ok = plo, phi, true
		default:
			lo, hi = min(lo, plo), max(hi, phi)
		}
	}
	return lo, hi, ok
}

// nodeIndex maps a node name to its index in the active worker set.
func (e *Engine) nodeIndex(name string) int {
	for i, n := range e.active {
		if n == name {
			return i
		}
	}
	return -1
}

// KillNode simulates a worker/datanode failure: the dead node leaves the
// worker set, the affinity mapping is recomputed with the min-cost flow of
// Figure 3, HDFS re-replicates lost blocks under the updated placement
// policy, and partition responsibilities move to surviving local nodes.
func (e *Engine) KillNode(name string) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := e.nodeIndex(name)
	if idx < 0 {
		return fmt.Errorf("core: %s not in worker set", name)
	}
	e.fs.KillNode(name)
	e.active = append(e.active[:idx], e.active[idx+1:]...)
	if len(e.active) == 0 {
		return fmt.Errorf("core: no workers left")
	}
	e.net = mpi.NewNetwork(len(e.active))

	for _, t := range e.tables {
		var partNames []string
		isLocal := func(part, node string) bool {
			p := t.Parts[partIndex(part)]
			pm := p.CurrentMeta()
			for _, f := range pm.Files() {
				r, err := e.fs.Open(f, node)
				if err != nil {
					continue
				}
				sz, _ := e.fs.Size(f)
				if sz > 0 && !r.IsLocal(node, 0, sz) {
					return false
				}
			}
			// A partition with no files yet counts as local to its
			// assigned targets.
			locs := e.policy.get(pm.Dir())
			for _, l := range locs {
				if l == node {
					return true
				}
			}
			return len(pm.Files()) > 0
		}
		for p := range t.Parts {
			partNames = append(partNames, fmt.Sprintf("p%04d", p))
		}
		r := e.cfg.Replication
		if t.Replicated() {
			r = len(e.active)
		}
		aff, err := affinity.ComputeAffinity(partNames, e.active, r, func(part, node string) bool {
			return isLocal(part, node)
		})
		if err != nil {
			return err
		}
		resp, err := affinity.ComputeResponsibility(partNames, e.active, func(part, node string) bool {
			return isLocal(part, node)
		})
		if err != nil {
			return err
		}
		for p, part := range t.Parts {
			pn := partNames[p]
			e.policy.set(part.CurrentMeta().Dir(), aff[pn])
			part.Responsible = resp[pn]
		}
	}
	e.fs.ReReplicate()
	e.bumpEpoch()
	return nil
}

func partIndex(partName string) int {
	var p int
	fmt.Sscanf(partName, "p%04d", &p)
	return p
}

// placementPolicy is the instrumented HDFS BlockPlacementPolicy of §3: it
// pins every file under a partition directory to the partition's affinity
// nodes, so locality survives re-replication and rebalancing.
type placementPolicy struct {
	mu       sync.Mutex
	targets  map[string][]string // partition dir -> replica nodes
	fallback hdfs.BlockPlacementPolicy
}

func (p *placementPolicy) set(dir string, nodes []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.targets[dir] = append([]string(nil), nodes...)
}

func (p *placementPolicy) get(dir string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.targets[dir]
}

// match returns the pinned node list for the directory owning path, or nil.
func (p *placementPolicy) match(path string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for dir, nodes := range p.targets {
		if strings.HasPrefix(path, dir+"/") {
			return nodes
		}
	}
	return nil
}

// ChooseTarget implements hdfs.BlockPlacementPolicy.
func (p *placementPolicy) ChooseTarget(path, writer string, replicas int, exclude, alive []string) []string {
	want := p.match(path)
	if want == nil {
		return p.fallback.ChooseTarget(path, writer, replicas, exclude, alive)
	}
	aliveSet := make(map[string]bool, len(alive))
	for _, a := range alive {
		aliveSet[a] = true
	}
	excluded := make(map[string]bool, len(exclude))
	for _, x := range exclude {
		excluded[x] = true
	}
	var out []string
	for _, n := range want {
		if len(out) < replicas && aliveSet[n] && !excluded[n] {
			out = append(out, n)
		}
	}
	return out
}

// PartitionMetaForTest exposes a partition's storage metadata to tests,
// experiments and the benchmark (e.g. the stored column sizes Figure 1c
// compares).
func (e *Engine) PartitionMetaForTest(table string, part int) *colstore.PartitionMeta {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[table]
	if !ok || part >= len(t.Parts) {
		return nil
	}
	return t.Parts[part].CurrentMeta()
}

// SortedTables lists catalog tables (stable order, for reports).
func (e *Engine) SortedTables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var names []string
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
