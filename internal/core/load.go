package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"vectorh/internal/colstore"
	"vectorh/internal/expr"
	"vectorh/internal/pdt"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// partitionOf returns the hash partition a key belongs to (all tables use
// the same function, so equal partition counts mean co-located joins). It
// uses the high bits of the key hash while exchanges route on the low bits,
// so a repartitioning exchange never degenerates into a no-op whose routing
// accidentally matches the table partitioning.
func partitionOf(key int64, parts int) int {
	return int((vector.HashInt64(key) >> 32) % uint64(parts))
}

// Load bulk-appends batches into a table's stable storage, bypassing PDTs
// (the vwload path). Partitioned tables are hash-partitioned on the
// partition key; clustered tables are sorted on the clustered column per
// partition. Appends are issued from each partition's responsible node, so
// the first HDFS replica lands locally, and partitions are encoded
// concurrently — each writes its own files under its own metadata clone.
//
// A load is all-or-nothing: the new metadata generations are published only
// after every partition has been written; on any error the files this load
// wrote are removed and metadata, row counts and catalog epoch stay as they
// were.
//
// Publishing an append resets the partition's PDTs, so a partition that
// receives rows and holds committed deltas is propagated first (writeMu keeps
// DML out meanwhile). That does not weaken all-or-nothing: propagation only
// moves committed state into stable storage, so a stage that fails after it
// still leaves a correct database.
func (e *Engine) Load(table string, batches []*vector.Batch) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	t, ok := e.tables[table]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown table %q", table)
	}
	start := time.Now()
	src, err := loadSource(t, batches)
	if err != nil {
		return err
	}
	rows := splitRows(t, src)
	for pi, rs := range rows {
		if c := t.Info.Schema.Index(t.Info.ClusteredOn); c >= 0 && len(rs) > 0 {
			t.place(pi, int64At(src.Col(c), int(rs[0]))) // sorted: first and last bound the rest
			t.place(pi, int64At(src.Col(c), int(rs[len(rs)-1])))
		}
	}

	// Workers take partitions off a queue filled before the first one
	// starts. They never touch writeMu (held here for their whole lifetime)
	// and publish nothing.
	staged := make([]*stagedAppend, len(t.Parts))
	errs := make([]error, len(t.Parts))
	todo := make(chan int, len(t.Parts))
	for pi := range t.Parts {
		if len(rows[pi]) > 0 {
			todo <- pi
		}
	}
	close(todo)
	if len(todo) == 0 {
		return nil // nothing to write: storage and epoch stay as they are
	}
	for pi, part := range t.Parts {
		if mem, err := e.mgr.MemBytesOf(part.Key); err == nil && mem > 0 && len(rows[pi]) > 0 {
			//lint:ctx Load takes no context; propagation is post-commit work that never honours cancellation
			if err := e.propagatePartition(context.Background(), t, part); err != nil {
				return fmt.Errorf("core: load into %s: propagating p%d: %w", table, pi, err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range todo {
				staged[pi], errs[pi] = e.stageAppend(t, t.Parts[pi], src, rows[pi])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, s := range staged {
			if s != nil {
				e.discardAppend(s)
			}
		}
		return fmt.Errorf("core: load into %s: %w", table, err)
	}
	for _, s := range staged {
		if s != nil {
			err = errors.Join(err, e.publishAppend(s))
		}
	}
	e.bumpEpoch()
	e.countLoad(staged, time.Since(start))
	return err
}

// loadSource checks the batches against the table's schema and returns them
// as one batch: the batch itself, selection vector and all, or the
// concatenation of several.
func loadSource(t *Table, batches []*vector.Batch) (*vector.Batch, error) {
	schema := t.Info.Schema
	total := 0
	for bi, b := range batches {
		if b.NumCols() != len(schema) {
			return nil, fmt.Errorf("core: load into %s: batch %d has %d columns, the table has %d",
				t.Info.Name, bi, b.NumCols(), len(schema))
		}
		for ci, f := range schema {
			if k := b.Col(ci).Kind(); k != f.Type.Kind {
				return nil, fmt.Errorf("core: load into %s: batch %d column %s is %s, the table stores %s",
					t.Info.Name, bi, f.Name, k, f.Type.Kind)
			}
		}
		total += b.Len()
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	out := vector.NewBatchForSchema(schema, total)
	for _, b := range batches {
		for ci, v := range out.Vecs {
			if err := v.AppendRowsChecked(b.Col(ci), b.Sel); err != nil {
				return nil, fmt.Errorf("core: load into %s: column %s: %w", t.Info.Name, schema[ci].Name, err)
			}
		}
	}
	return out, nil
}

// splitRows returns, per partition, the physical rows of b it receives, in
// load order (replicated tables have one partition) — stable-sorted on the
// clustered key when the table has one.
func splitRows(t *Table, b *vector.Batch) [][]int32 {
	rows := make([][]int32, len(t.Parts))
	var key *vector.Vec
	if t.Info.PartitionKey != "" {
		key = b.Col(t.Info.Schema.Index(t.Info.PartitionKey))
	}
	n := b.Len()
	for p := range rows {
		rows[p] = make([]int32, 0, n/len(rows)+n/16+1)
	}
	for i := 0; i < n; i++ {
		r, p := i, 0
		if b.Sel != nil {
			r = int(b.Sel[i])
		}
		if key != nil {
			p = partitionOf(int64At(key, r), len(rows))
		}
		rows[p] = append(rows[p], int32(r))
	}
	if t.Info.ClusteredOn != "" {
		v := b.Col(t.Info.Schema.Index(t.Info.ClusteredOn))
		for _, part := range rows {
			slices.SortStableFunc(part, func(x, y int32) int {
				return cmp.Compare(int64At(v, int(x)), int64At(v, int(y)))
			})
		}
	}
	return rows
}

func int64At(v *vector.Vec, r int) int64 {
	if v.Kind() == vector.Int32 {
		return int64(v.Int32s()[r])
	}
	return v.Int64s()[r]
}

// stagedAppend is one partition's append, written but not yet visible: the
// metadata generation to publish, and what to undo should it be abandoned.
type stagedAppend struct {
	part       *Partition
	old, meta  *colstore.PartitionMeta
	superseded []string
	tailSize   int64 // pre-append size of old's open chunk file
}

// stageAppend writes the given rows of src (physical positions; src.Sel is
// not consulted) to a partition's column store without publishing them. It
// takes no engine lock: the caller holds e.writeMu, and Load runs one call
// per partition concurrently.
//
// Copy-on-write: the appender works on a clone of the partition metadata;
// concurrent scans keep reading the published generation (appends to chunk
// files only add bytes past the offsets old block directories reference).
// On error everything written is removed again.
func (e *Engine) stageAppend(t *Table, part *Partition, src *vector.Batch, rows []int32) (s *stagedAppend, err error) {
	s = &stagedAppend{part: part, old: part.CurrentMeta()}
	s.meta = s.old.Clone()
	if n := len(s.old.Chunks); n > 0 {
		if s.tailSize, err = e.fs.Size(s.old.ChunkPath(n - 1)); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err != nil {
			e.discardAppend(s)
			s = nil
		}
	}()
	a, err := colstore.NewAppender(e.fs, s.meta, part.Responsible)
	if err != nil {
		return s, err
	}
	// Feed in vector-sized batches to bound appender encode granularity.
	chunk := vector.Batch{Vecs: src.Vecs}
	for off := 0; off < len(rows); off += vector.MaxSize {
		chunk.Sel = rows[off:min(off+vector.MaxSize, len(rows))]
		if err := a.Append(&chunk); err != nil {
			return s, err
		}
	}
	if err := a.Close(); err != nil {
		return s, err
	}
	s.superseded = a.Superseded()
	if t.Replicated() {
		// Replicated tables carry one replica per worker.
		for _, f := range s.meta.Files() {
			if err := e.fs.SetReplication(f, len(e.active)); err != nil {
				return s, err
			}
		}
		e.fs.ReReplicate()
	}
	return s, nil
}

// discardAppend removes what an abandoned append wrote: the files it created
// and the bytes it added to the chunk file that was already open.
func (e *Engine) discardAppend(s *stagedAppend) {
	keep := s.old.Files()
	deleteAll(e.fs, slices.DeleteFunc(s.meta.Files(), func(f string) bool { return slices.Contains(keep, f) }))
	if n := len(s.old.Chunks); n > 0 {
		// Cannot fail: the file was sized at stage time and has only grown.
		_ = e.fs.Truncate(s.old.ChunkPath(n-1), s.tailSize)
	}
}

// publishAppend makes a staged append visible and refreshes the partition's
// transaction state to the new stable row count (bulk load happens outside
// transactions, as in vwload). The clone is published — and the PDTs reset —
// in one critical section, so a scan opening mid-append sees either the old
// blocks+PDT tail or the new blocks+empty PDTs, never a mix. The caller
// holds e.writeMu and bumps the catalog epoch afterwards.
func (e *Engine) publishAppend(s *stagedAppend) error {
	s.part.mu.Lock()
	deletable := s.part.publishLocked(s.meta, s.superseded)
	err := e.mgr.ResetAfterFlush(s.part.Key, s.meta.Rows)
	s.part.mu.Unlock()
	deleteAll(e.fs, deletable)
	return err
}

// countLoad feeds the vectorh_load_* metrics: once per Load or propagation
// append, nothing per row.
func (e *Engine) countLoad(staged []*stagedAppend, took time.Duration) {
	for _, s := range staged {
		if s == nil {
			continue
		}
		oldRaw, oldEnc := s.old.StorageBytes()
		raw, enc := s.meta.StorageBytes()
		e.loadRows.Add(s.meta.Rows - s.old.Rows)
		e.loadRawBytes.Add(raw - oldRaw)
		e.loadEncodedBytes.Add(enc - oldEnc)
	}
	e.loadNanos.Add(int64(took))
}

// nodeSlots snapshots the active-node ordering (name → slot) under e.mu.
func (e *Engine) nodeSlots() map[string]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	nodeOf := make(map[string]int, len(e.active))
	for i, n := range e.active {
		nodeOf[n] = i
	}
	return nodeOf
}

// InsertRows trickle-inserts rows through PDTs in one transaction (the RF1
// path). Rows land in the Write-PDT as tail inserts; queries see them
// immediately after commit, and query performance stays unaffected (§8
// "Impact of Updates").
//
// A cancelled context aborts the transaction before commit; committed work
// is never undone (the post-commit flush runs to completion).
func (e *Engine) InsertRows(ctx context.Context, table string, b *vector.Batch) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	t, ok := e.tables[table]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown table %q", table)
	}
	schema := t.Info.Schema
	keyIdx := -1
	if t.Info.PartitionKey != "" {
		keyIdx = schema.Index(t.Info.PartitionKey)
	}
	ck := t.Info.Schema.Index(t.Info.ClusteredOn)
	tx := e.mgr.Begin()
	c := b.Compact()
	for r := 0; r < c.Len(); r++ {
		if r%1024 == 0 && ctx.Err() != nil {
			tx.Abort()
			return fmt.Errorf("core: insert into %s canceled: %w", table, context.Cause(ctx))
		}
		p := 0
		if keyIdx >= 0 {
			p = partitionOf(int64At(c.Col(keyIdx), r), len(t.Parts))
		}
		if err := tx.Append(t.Parts[p].Key, c.Row(r)); err != nil {
			tx.Abort()
			return err
		}
		if ck >= 0 {
			t.place(p, int64At(c.Col(ck), r)) // before the commit makes the row visible
		}
	}
	if err := ctx.Err(); err != nil {
		tx.Abort()
		return fmt.Errorf("core: insert into %s canceled: %w", table, context.Cause(ctx))
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if err := e.maybePropagate(ctx, t); err != nil {
		// The insert is durably committed; only the post-commit flush
		// failed. Say so, or a caller would retry and duplicate the rows.
		return fmt.Errorf("core: rows committed, but post-commit flush failed: %w", err)
	}
	return nil
}

// DeleteWhere trickle-deletes all rows matching pred, returning the count.
// Deletes are recorded positionally in the PDTs (compact for contiguous
// ranges) at each partition's responsible node.
func (e *Engine) DeleteWhere(ctx context.Context, table string, pred plan.Expr) (int64, error) {
	return e.updateWhere(ctx, table, pred, nil, nil)
}

// UpdateWhere trickle-modifies the named columns of matching rows with
// values computed by the given expressions (over the full table schema).
func (e *Engine) UpdateWhere(ctx context.Context, table string, pred plan.Expr, setCols []string, setExprs []plan.Expr) (int64, error) {
	if len(setCols) == 0 {
		return 0, fmt.Errorf("core: UpdateWhere without SET columns")
	}
	return e.updateWhere(ctx, table, pred, setCols, setExprs)
}

func (e *Engine) updateWhere(ctx context.Context, table string, pred plan.Expr, setCols []string, setExprs []plan.Expr) (int64, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	t, ok := e.tables[table]
	e.mu.RUnlock()
	nodeOf := e.nodeSlots()
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", table)
	}
	schema := t.Info.Schema
	bound, err := pred.Bind(schema)
	if err != nil {
		return 0, err
	}
	if pt, err := pred.Type(schema); err != nil || pt.Kind != vector.Bool {
		return 0, fmt.Errorf("core: predicate on %q is not boolean", table)
	}
	read := expr.Columns(bound)
	var setIdx []int
	var setBound []expr.Expr
	for i, cname := range setCols {
		ci := schema.Index(cname)
		if ci < 0 {
			return 0, fmt.Errorf("core: no column %q", cname)
		}
		setIdx = append(setIdx, ci)
		be, err := setExprs[i].Bind(schema)
		if err != nil {
			return 0, err
		}
		// Reject SET expressions whose physical kind does not match the
		// column: the value would land in the PDT as-is and only blow up
		// later, deep inside a merging scan.
		if be.Kind() != schema[ci].Type.Kind {
			return 0, fmt.Errorf("core: SET %s: expression kind %s does not match column kind %s",
				cname, be.Kind(), schema[ci].Type.Kind)
		}
		read = append(read, expr.Columns(be)...)
	}
	// The scan reads only the columns the predicate and the SET expressions
	// do, and both are bound against that projection (plan.Expr binds by
	// name). With none, one column still counts the rows.
	slices.Sort(read)
	read = slices.Compact(read)
	if len(read) == 0 {
		read = []int{0}
	}
	proj := make(vector.Schema, len(read))
	for i, c := range read {
		proj[i] = schema[c]
	}
	if bound, err = pred.Bind(proj); err != nil {
		return 0, err
	}
	for _, se := range setExprs {
		be, err := se.Bind(proj)
		if err != nil {
			return 0, err
		}
		setBound = append(setBound, be)
	}
	// Two programs, because the SET expressions run only on batches with a
	// hit; both are this statement's own.
	predProg, err := expr.Compile(bound)
	if err != nil {
		return 0, err
	}
	setProg, err := expr.Compile(setBound...)
	if err != nil {
		return 0, err
	}

	tx := e.mgr.Begin()
	var total int64
	for _, part := range t.Parts {
		// Scan the partition at its responsible node, tracking RIDs. Hits
		// are applied batch by batch — bounded chunks of at most
		// vector.MaxSize rows — rather than buffered per partition; the
		// scan works on snapshotted PDTs, so the transaction's own
		// uncommitted writes never disturb it.
		node := nodeOf[part.Responsible]
		// Value-space scan: the batches feed SET-expression evaluation and
		// PDT writes, which want materialized strings anyway.
		scan, err := e.PartitionScan(ctx, rewriter.ScanSpec{Table: table, Cols: proj.Names()}, part.CurrentMeta().Partition, node)
		if err != nil {
			tx.Abort()
			return 0, err
		}
		if err := scan.Open(); err != nil {
			tx.Abort()
			return 0, err
		}
		// rid counts RIDs as rid += b.Len(): a scan batch holds the visible
		// rows of its span in position order — a selection over the span's
		// stable rows drops only rows the deltas delete, which have no RID,
		// and this scan has no predicate — and Program.Out is dense over them.
		rid := int64(0)
		deleted := int64(0) // rows already deleted below the cursor
		for {
			b, err := scan.Next()
			if err != nil {
				scan.Close()
				tx.Abort()
				return 0, err
			}
			if b == nil {
				break
			}
			if err := predProg.Run(b); err != nil {
				scan.Close()
				tx.Abort()
				return 0, err
			}
			matches := predProg.Out(0).Bools()
			nmatch := 0
			for _, m := range matches {
				if m {
					nmatch++
				}
			}
			if nmatch == 0 {
				// No hit in this batch: skip SET evaluation entirely.
				rid += int64(b.Len())
				continue
			}
			if setCols == nil {
				// Ascending deletes: each prior delete shifts the visible
				// positions above it down by one.
				for r, match := range matches {
					if !match {
						continue
					}
					if err := tx.Delete(part.Key, rid+int64(r)-deleted); err != nil {
						scan.Close()
						tx.Abort()
						return 0, err
					}
					deleted++
				}
			} else {
				if err := setProg.Run(b); err != nil {
					scan.Close()
					tx.Abort()
					return 0, err
				}
				for r, match := range matches {
					if !match {
						continue
					}
					vals := make([]any, len(setBound))
					for i := range vals {
						vals[i] = setProg.Out(i).Get(r)
					}
					if err := tx.Modify(part.Key, rid+int64(r), setIdx, vals); err != nil {
						scan.Close()
						tx.Abort()
						return 0, err
					}
				}
			}
			total += int64(nmatch)
			rid += int64(b.Len())
		}
		scan.Close()
	}
	if err := ctx.Err(); err != nil {
		tx.Abort()
		return 0, fmt.Errorf("core: %s canceled: %w", table, context.Cause(ctx))
	}
	if total > 0 && slices.Contains(setIdx, t.Info.Schema.Index(t.Info.ClusteredOn)) {
		// A modified clustered key can land anywhere among its neighbours.
		t.unordered.Store(true)
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	if err := e.maybePropagate(ctx, t); err != nil {
		// The changes are durably committed; report the affected count
		// alongside the post-commit flush failure.
		return total, fmt.Errorf("core: %d rows committed, but post-commit flush failed: %w", total, err)
	}
	return total, nil
}

// maybePropagate runs update propagation for partitions whose PDT layers
// exceed the flush threshold. Propagation failures are surfaced, not
// swallowed: a partition whose flush failed half-way must not pretend the
// write path is healthy. The caller holds e.writeMu.
func (e *Engine) maybePropagate(ctx context.Context, t *Table) error {
	for _, part := range t.Parts {
		mem, err := e.mgr.MemBytesOf(part.Key)
		if err != nil {
			continue
		}
		if mem >= e.cfg.PDTFlushBytes {
			if err := e.propagatePartition(ctx, t, part); err != nil {
				return fmt.Errorf("core: propagating %s.p%d: %w", t.Info.Name, part.CurrentMeta().Partition, err)
			}
		}
	}
	return nil
}

// PropagatePartition flushes a partition's PDTs into the column store: tail
// inserts append new blocks (the cheap path of §6), anything else rewrites
// the partition into a new generation of chunk files.
func (e *Engine) PropagatePartition(ctx context.Context, table string, partIdx int) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	t, ok := e.tables[table]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown table %q", table)
	}
	if partIdx < 0 || partIdx >= len(t.Parts) {
		return fmt.Errorf("core: %s has no partition %d", table, partIdx)
	}
	return e.propagatePartition(ctx, t, t.Parts[partIdx])
}

// propagatePartition is PropagatePartition with e.writeMu held.
func (e *Engine) propagatePartition(ctx context.Context, t *Table, part *Partition) error {
	nodeOf := e.nodeSlots()
	if err := e.mgr.PropagateWriteToRead(part.Key); err != nil {
		return err
	}
	stRead, _, err := e.mgr.Snapshot(part.Key)
	if err != nil {
		return err
	}
	ins, del, mod := stRead.Counts()
	if ins+del+mod == 0 {
		return nil
	}
	e.pdtFlushes.Add(1)
	e.pdtFlushEntries.Add(int64(ins + del + mod))
	schema := t.Info.Schema
	partIdx := part.CurrentMeta().Partition

	if stRead.IsTailInsertOnly() {
		// Tail-insert separation: append new blocks only.
		merger := pdt.NewMerger(stRead, schema, identityCols(len(schema)))
		tail, _ := merger.Tail()
		if tail == nil {
			return nil
		}
		start := time.Now()
		rows := make([]int32, tail.Len()) // Tail batches are dense
		for i := range rows {
			rows[i] = int32(i)
		}
		s, err := e.stageAppend(t, part, tail, rows)
		if err != nil {
			return err
		}
		err = e.publishAppend(s)
		e.bumpEpoch()
		if err != nil {
			return err
		}
		e.countLoad([]*stagedAppend{s}, time.Since(start))
		return nil
	}

	// Full rewrite into a new partition generation. The rewriting scan pins
	// the current generation; the appender fills a fresh one (new directory,
	// Gen+1), which is published — with the PDTs reset — in one critical
	// section once the rewrite completes. Scans that started on the old
	// generation finish undisturbed; its files are deleted when the last of
	// them closes.
	node := nodeOf[part.Responsible]
	// The flush follows a commit that is never undone, so the rewriting
	// scan does not inherit the statement's cancellation.
	scan, err := e.PartitionScan(context.WithoutCancel(ctx),
		rewriter.ScanSpec{Table: t.Info.Name, Cols: schema.Names(), Codes: true}, partIdx, node)
	if err != nil {
		return err
	}
	oldMeta := part.CurrentMeta()
	newMeta := colstore.NewPartitionMeta(t.Info.Name, partIdx, schema, e.cfg.Format)
	newMeta.Gen = oldMeta.Gen + 1
	e.policy.set(newMeta.Dir(), e.policy.get(oldMeta.Dir()))
	a, err := colstore.NewAppender(e.fs, newMeta, part.Responsible)
	if err != nil {
		return err
	}
	if err := scan.Open(); err != nil {
		return err
	}
	for {
		b, err := scan.Next()
		if err != nil {
			scan.Close()
			return err
		}
		if b == nil {
			break
		}
		if err := a.Append(b.Compact()); err != nil {
			scan.Close()
			return err
		}
	}
	scan.Close()
	if err := a.Close(); err != nil {
		return err
	}
	if t.Replicated() {
		for _, f := range newMeta.Files() {
			if err := e.fs.SetReplication(f, len(e.active)); err != nil {
				return err
			}
		}
		e.fs.ReReplicate()
	}
	part.mu.Lock()
	deletable := part.publishLocked(newMeta, oldMeta.Files())
	err = e.mgr.ResetAfterFlush(part.Key, newMeta.Rows)
	part.mu.Unlock()
	deleteAll(e.fs, deletable)
	e.bumpEpoch()
	return err
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
