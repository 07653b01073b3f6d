package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"vectorh/internal/colstore"
	"vectorh/internal/compress"
	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/hdfs"
	"vectorh/internal/mpi"
	"vectorh/internal/mpp"
	"vectorh/internal/pdt"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/server"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
	"vectorh/internal/txn"
	"vectorh/internal/vector"
	"vectorh/internal/wal"
)

// The micro pass: every layer timed from outside, by direct single-threaded
// calls into its public functions on columns of the generated lineitem and
// orders tables. Each number is the median of `reps` repetitions that each
// run for at least `minDur`.
type micro struct {
	reps   int
	minDur time.Duration
	out    map[string]float64
	err    error // first error of a timed call; the pass fails on it
}

func (mb *micro) keep(err error) {
	if err != nil && mb.err == nil {
		mb.err = err
	}
}

// nsPer times f, which does `units` units of work per call, and returns the
// median nanoseconds per unit.
func (mb *micro) nsPer(units int, f func()) float64 {
	per := make([]float64, mb.reps)
	for r := range per {
		calls := 0
		start := time.Now()
		var elapsed time.Duration
		for elapsed < mb.minDur {
			f()
			calls++
			elapsed = time.Since(start)
		}
		per[r] = float64(elapsed) / float64(calls*units)
	}
	return median(per)
}

// mbPerS converts ns per byte into MB/s.
func mbPerS(nsPerByte float64) float64 { return ratio(1e3, nsPerByte) }

const blockRows = 8192 // colstore.Format.MaxRowsPerBlock of the benchmark's engine

// batchesOf cuts the first maxRows rows of b into vector-sized dense batches.
func batchesOf(b *vector.Batch, maxRows int) []*vector.Batch {
	n := min(b.Len(), maxRows)
	var out []*vector.Batch
	for lo := 0; lo < n; lo += vector.MaxSize {
		out = append(out, sliceBatch(b, lo, min(lo+vector.MaxSize, n)))
	}
	return out
}

func bind(e plan.Expr) expr.Expr {
	bound, err := e.Bind(tpch.LineitemSchema)
	if err != nil {
		panic(fmt.Sprintf("bench: binding a fixed expression: %v", err)) // a bug in this file, not an input
	}
	return bound
}

func drain(op exec.Operator) (rows int, err error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return rows, err
		}
		rows += b.Len()
	}
}

// drainAll consumes every port concurrently, as exchange consumers do.
func drainAll(ports []exec.Operator) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ports))
	for i, p := range ports {
		wg.Add(1)
		go func(i int, p exec.Operator) {
			defer wg.Done()
			_, errs[i] = drain(p)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// microLayers runs the whole micro pass against a loaded instance.
func microLayers(ctx context.Context, in *instance, quick bool) (map[string]float64, error) {
	mb := &micro{reps: 5, minDur: 20 * time.Millisecond, out: map[string]float64{}}
	if quick {
		mb.reps, mb.minDur = 1, time.Millisecond
	}
	li := in.data.Tables["lineitem"]
	mb.compress(li)
	mb.storage(in)
	mb.vectorAndExpr(li)
	mb.operators(ctx, li, in.data.Tables["orders"])
	mb.exchange(ctx, li)
	mb.frontEnd(in)
	mb.updates(li)
	mb.serving(in, li)
	mb.engine(ctx, in)
	return mb.out, mb.err
}

func (mb *micro) compress(li *vector.Batch) {
	n := min(li.Len(), blockRows)
	col := func(name string) *vector.Vec { return li.Vecs[tpch.LineitemSchema.Index(name)] }
	var scratch compress.Scratch

	qty := col("l_quantity").Int64s()[:n]
	qtyEnc := compress.PFOREncode(qty)
	ints := make([]int64, 0, n)
	mb.out["compress.pfor_encode_mb_s"] = mbPerS(mb.nsPer(8*n, func() { compress.PFOREncode(qty) }))
	mb.out["compress.pfor_decode_mb_s"] = mbPerS(mb.nsPer(8*n, func() {
		_, err := compress.PFORDecodeScratch(qtyEnc, ints[:0], &scratch)
		mb.keep(err)
	}))
	keyEnc := compress.PFORDeltaEncode(col("l_orderkey").Int64s()[:n])
	mb.out["compress.pfordelta_decode_mb_s"] = mbPerS(mb.nsPer(8*n, func() {
		_, err := compress.PFORDeltaDecodeScratch(keyEnc, ints[:0], &scratch)
		mb.keep(err)
	}))

	modes := col("l_shipmode").Strings()[:n]
	modeBytes := 0
	for _, s := range modes {
		modeBytes += len(s)
	}
	modeEnc := compress.PDictEncode(modes)
	strs := make([]string, 0, n)
	mb.out["compress.pdict_decode_mb_s"] = mbPerS(mb.nsPer(modeBytes, func() {
		_, err := compress.PDictDecodeScratch(modeEnc, strs[:0], &scratch)
		mb.keep(err)
	}))

	comments := col("l_comment").Strings()[:n]
	raw := []byte(strings.Join(comments, "\x00"))
	lz := compress.LZCompress(raw)
	mb.out["compress.lz_decode_mb_s"] = mbPerS(mb.nsPer(len(raw), func() {
		_, err := compress.LZDecompress(lz)
		mb.keep(err)
	}))
	mb.out["compress.strings_encode_mb_s"] = mbPerS(mb.nsPer(len(raw), func() { compress.EncodeStrings(comments) }))
}

// storage times colstore scans of one loaded lineitem partition, with and
// without a decoded-block cache, and raw hdfs reads of its files.
func (mb *micro) storage(in *instance) {
	meta := in.eng.PartitionMetaForTest("lineitem", 0)
	if meta == nil {
		mb.keep(fmt.Errorf("bench: lineitem partition 0 has no metadata"))
		return
	}
	fs, node := in.eng.FS(), in.eng.Nodes()[0]
	cols := []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate", "l_returnflag", "l_shipmode"}
	scan := func(bc *colstore.BlockCache) (rows int) {
		s, err := colstore.NewScanner(fs, meta, node, cols, nil)
		if err != nil {
			mb.keep(err)
			return 0
		}
		defer s.Close()
		if bc != nil {
			s.SetCache(bc)
		}
		for {
			b, _, err := s.Next()
			mb.keep(err)
			if b == nil {
				return rows
			}
			rows += b.Len()
		}
	}
	rows := scan(nil)
	if rows == 0 {
		mb.keep(fmt.Errorf("bench: lineitem partition 0 scanned 0 rows"))
		return
	}
	mb.out["colstore.scan_cold_ns_per_row"] = mb.nsPer(rows, func() { scan(nil) })
	bc := colstore.NewBlockCache(64 << 20)
	scan(bc)
	mb.out["colstore.scan_warm_ns_per_row"] = mb.nsPer(rows, func() { scan(bc) })

	files := meta.Files()
	var size int64
	for _, f := range files {
		n, err := fs.Size(f)
		if err != nil {
			mb.keep(err)
			return
		}
		size += n
	}
	mb.out["hdfs.read_mb_s"] = mbPerS(mb.nsPer(int(size), func() {
		for _, f := range files {
			_, err := fs.ReadAll(f, node)
			mb.keep(err)
		}
	}))
}

func (mb *micro) vectorAndExpr(li *vector.Batch) {
	b := batchesOf(li, vector.MaxSize)[0]
	n := b.Len()
	idx := func(names ...string) []int {
		out := make([]int, len(names))
		for i, name := range names {
			out[i] = tpch.LineitemSchema.Index(name)
		}
		return out
	}
	// The six-column shape of wide_result's W1: what [][]any boxing costs.
	six := b.Project(idx("l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_shipdate", "l_shipmode"))
	mb.out["vector.box_ns_per_row"] = mb.nsPer(n, func() {
		for i := 0; i < n; i++ {
			six.Row(i)
		}
	})
	keys := b.Project(idx("l_partkey", "l_suppkey")).Vecs // Q09's join key
	hashes := make([]uint64, n)
	mb.out["vector.hash_ns_per_key"] = mb.nsPer(n, func() { vector.HashCols(hashes, keys) })

	eval := func(e expr.Expr) *vector.Vec {
		v, err := e.Eval(b)
		mb.keep(err)
		return v
	}
	// Q01's charge expression.
	arith := bind(plan.Mul(plan.Mul(plan.Dec("l_extendedprice"), plan.Sub(plan.Float(1), plan.Dec("l_discount"))),
		plan.Add(plan.Float(1), plan.Dec("l_tax"))))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	evals := 0
	mb.out["expr.arith_ns_per_value"] = mb.nsPer(n, func() { eval(arith); evals++ })
	runtime.ReadMemStats(&m1)
	mb.out["expr.alloc_bytes_per_value"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(evals*n)

	cmp := bind(plan.And(plan.GE(plan.Col("l_shipdate"), plan.Date("1994-01-01")),
		plan.LT(plan.Col("l_shipdate"), plan.Date("1995-01-01"))))
	mb.out["expr.cmp_ns_per_value"] = mb.nsPer(n, func() {
		if v := eval(cmp); v != nil {
			expr.SelFromBool(v, b)
		}
	})
	like := bind(plan.Like(plan.Col("l_comment"), "%regular%"))
	mb.out["expr.like_ns_per_value"] = mb.nsPer(n, func() { eval(like) })
}

func (mb *micro) operators(ctx context.Context, li, orders *vector.Batch) {
	batches := batchesOf(li, 64*vector.MaxSize)
	rows := 0
	for _, b := range batches {
		rows += b.Len()
	}
	flag, status := tpch.LineitemSchema.Index("l_returnflag"), tpch.LineitemSchema.Index("l_linestatus")
	okey := tpch.LineitemSchema.Index("l_orderkey")

	groupIDs := make([]int32, vector.MaxSize)
	mb.out["exec.group_ns_per_key"] = mb.nsPer(rows, func() {
		t := exec.NewHashTable([]vector.Kind{vector.String, vector.String}, nil)
		for _, b := range batches {
			t.FindOrInsert([]*vector.Vec{b.Vecs[flag], b.Vecs[status]}, b.Len(), groupIDs[:b.Len()])
		}
	})

	orderKeys := batchesOf(orders.Project([]int{0}), orders.Len())
	build := func() *exec.HashTable {
		t := exec.NewHashTable([]vector.Kind{vector.Int64}, nil)
		for _, b := range orderKeys {
			t.InsertBatch(b.Vecs, b.Len())
		}
		return t
	}
	mb.out["exec.join_build_ns_per_key"] = mb.nsPer(orders.Len(), func() { build() })
	built := build()
	var ps, bs []int32
	mb.out["exec.join_probe_ns_per_key"] = mb.nsPer(rows, func() {
		for _, b := range batches {
			ps, bs = built.ProbeJoin([]*vector.Vec{b.Vecs[okey]}, b.Len(), ps[:0], bs[:0], false)
		}
	})

	// Q01's grouping and aggregates.
	price, disc := plan.Dec("l_extendedprice"), plan.Sub(plan.Float(1), plan.Dec("l_discount"))
	aggs := []exec.AggSpec{
		{Func: exec.AggSum, Arg: bind(plan.Dec("l_quantity"))},
		{Func: exec.AggSum, Arg: bind(price)},
		{Func: exec.AggSum, Arg: bind(plan.Mul(price, disc))},
		{Func: exec.AggSum, Arg: bind(plan.Mul(plan.Mul(price, disc), plan.Add(plan.Float(1), plan.Dec("l_tax"))))},
		{Func: exec.AggAvg, Arg: bind(plan.Dec("l_quantity"))},
		{Func: exec.AggAvg, Arg: bind(price)},
		{Func: exec.AggAvg, Arg: bind(plan.Dec("l_discount"))},
		{Func: exec.AggCountStar},
	}
	groupKeys := []expr.Expr{bind(plan.Col("l_returnflag")), bind(plan.Col("l_linestatus"))}
	mb.out["exec.hashaggr_ns_per_row"] = mb.nsPer(rows, func() {
		_, err := drain(&exec.HashAggr{Child: &exec.BatchSource{Batches: batches}, Keys: groupKeys, Aggs: aggs})
		mb.keep(err)
	})

	sortRows := batches[:min(len(batches), 16)]
	mb.out["exec.sort_ns_per_row"] = mb.nsPer(len(sortRows)*vector.MaxSize, func() {
		_, err := drain(&exec.Sort{Child: &exec.BatchSource{Batches: sortRows},
			Keys: []exec.SortKey{{Expr: bind(plan.Col("l_extendedprice"))}}})
		mb.keep(err)
	})

	half := len(batches) / 2
	mb.out["exec.xchg_ns_per_row"] = mb.nsPer(rows, func() {
		producers := []exec.Operator{&exec.BatchSource{Batches: batches[:half]}, &exec.BatchSource{Batches: batches[half:]}}
		mb.keep(drainAll(exec.XchgHashSplit(ctx, producers, []expr.Expr{bind(plan.Col("l_orderkey"))}, 2)))
	})
}

func (mb *micro) exchange(ctx context.Context, li *vector.Batch) {
	cols := []int{tpch.LineitemSchema.Index("l_orderkey"), tpch.LineitemSchema.Index("l_partkey"),
		tpch.LineitemSchema.Index("l_quantity"), tpch.LineitemSchema.Index("l_extendedprice"),
		tpch.LineitemSchema.Index("l_shipdate"), tpch.LineitemSchema.Index("l_shipmode")}
	var batches []*vector.Batch
	rows := 0
	for _, b := range batchesOf(li, 48*vector.MaxSize) {
		batches = append(batches, b.Project(cols))
		rows += b.Len()
	}
	one := batches[0]
	encoded := mpi.EncodeBatch(one)
	mb.out["mpi.encode_ns_per_row"] = mb.nsPer(one.Len(), func() { mpi.EncodeBatch(one) })
	mb.out["mpi.decode_ns_per_row"] = mb.nsPer(one.Len(), func() {
		_, err := mpi.DecodeBatch(encoded)
		mb.keep(err)
	})
	mb.out["mpi.bytes_per_row"] = float64(len(encoded)) / float64(one.Len())

	third := len(batches) / nodes
	key := []expr.Expr{expr.Col(0, vector.Int64)}
	mb.out["mpp.dxchg_ns_per_row"] = mb.nsPer(rows, func() {
		producers := make([][]exec.Operator, nodes)
		for n := range producers {
			hi := (n + 1) * third
			if n == nodes-1 {
				hi = len(batches)
			}
			producers[n] = []exec.Operator{&exec.BatchSource{Batches: batches[n*third : hi]}}
		}
		cfg := mpp.Config{Net: mpi.NewNetwork(nodes), MsgBytes: 64 << 10, Ctx: ctx}
		ports, _ := mpp.DXchgHashSplit(cfg, producers, key, []int{threads, threads, threads})
		var flat []exec.Operator
		for _, p := range ports {
			flat = append(flat, p...)
		}
		err := drainAll(flat)
		mb.keep(err)
	})
}

// frontEnd times parse, cold compile, plan-cache hit and rewrite, as the
// mean over the 22 TPC-H statements.
func (mb *micro) frontEnd(in *instance) {
	stmts := allTPCHStmts()
	perStmtUs := func(f func(st stmt)) float64 {
		return mb.nsPer(len(stmts), func() {
			for _, st := range stmts {
				f(st)
			}
		}) / 1e3
	}
	mb.out["sql.parse_us"] = perStmtUs(func(st stmt) { _, err := sql.Parse(st.sql); mb.keep(err) })
	mb.out["sql.compile_us"] = perStmtUs(func(st stmt) { _, err := sql.Compile(st.sql, in.eng); mb.keep(err) })
	cache := sql.NewPlanCache(0)
	epoch := in.eng.CatalogEpoch()
	hit := func(st stmt) { _, _, _, err := cache.Compile(st.sql, in.eng, epoch); mb.keep(err) }
	for _, st := range stmts {
		hit(st)
	}
	mb.out["sql.plan_cache_hit_us"] = perStmtUs(hit)

	plans := make([]plan.Node, len(stmts))
	for i, st := range stmts {
		var err error
		if plans[i], err = sql.Compile(st.sql, in.eng); err != nil {
			mb.keep(err)
			return
		}
	}
	opts := rewriter.DefaultOptions(nodes, threads)
	mb.out["rewriter.rewrite_us"] = mb.nsPer(len(plans), func() {
		for _, p := range plans {
			_, err := rewriter.Rewrite(p, in.eng, opts)
			mb.keep(err)
		}
	}) / 1e3
}

// updates times the PDT, the transaction manager and the WAL on lineitem
// rows.
func (mb *micro) updates(li *vector.Batch) {
	const stable = 64 * vector.MaxSize
	base := batchesOf(li, stable)
	rows := make([][]any, 100)
	for i := range rows {
		rows[i] = li.Row(i % li.Len())
	}
	// 1% of the stable rows: positions spread evenly over the image.
	const deltas = stable / 100
	mb.out["pdt.insert_ns"] = mb.nsPer(deltas, func() {
		t := pdt.New(stable)
		for k := 0; k < deltas; k++ {
			mb.keep(t.Insert(int64(k)*100, rows[k%len(rows)]))
		}
	})
	mb.out["pdt.delete_ns"] = mb.nsPer(deltas, func() {
		t := pdt.New(stable)
		for k := 0; k < deltas; k++ {
			mb.keep(t.Delete(int64(k) * 99))
		}
	})
	t := pdt.New(stable)
	for k := 0; k < deltas/2; k++ {
		mb.keep(t.Insert(int64(k)*190, rows[k%len(rows)]))
		mb.keep(t.Delete(int64(k)*190 + 95))
	}
	cols := make([]int, len(tpch.LineitemSchema))
	for i := range cols {
		cols[i] = i
	}
	merged := 0
	for _, b := range base {
		merged += b.Len()
	}
	mb.out["pdt.merge_ns_per_row"] = mb.nsPer(merged, func() {
		m := pdt.NewMerger(t, tpch.LineitemSchema, cols)
		s0 := int64(0)
		for _, b := range base {
			_, _, err := m.MergeRange(b, s0)
			mb.keep(err)
			s0 += int64(b.Len())
		}
	})

	// A 100-row transaction: Begin, 100 x Append, Commit (PREPARE on the
	// partition WAL, COMMIT on the global WAL), on a private one-node hdfs.
	const key = txn.PartKey("lineitem/0")
	var walBytes int64
	mb.out["txn.commit_us"] = mb.nsPer(1, func() {
		fs := hdfs.NewCluster([]string{"n1"}, hdfs.Config{})
		mgr := txn.NewManager(wal.Open(fs, "/wal/global", "n1"))
		mgr.AddPartition(key, 0, wal.Open(fs, "/wal/lineitem0", "n1"))
		tx := mgr.Begin()
		for _, row := range rows {
			mb.keep(tx.Append(key, row))
		}
		mb.keep(tx.Commit())
		g, _ := fs.Size("/wal/global")
		p, _ := fs.Size("/wal/lineitem0")
		walBytes = g + p
	}) / 1e3
	mb.out["wal.bytes_per_row"] = float64(walBytes) / float64(len(rows))

	payload := bytes.Repeat([]byte{0xab}, 256)
	fs := hdfs.NewCluster([]string{"n1"}, hdfs.Config{})
	log := wal.Open(fs, "/wal/bench", "n1")
	mb.out["wal.append_us"] = mb.nsPer(1, func() { mb.keep(log.Append(txn.RecPrepare, payload)) }) / 1e3
}

// frameRows is server.Options' default RowsPerFrame.
const frameRows = 512

// serving times the wire format on full frames of W1-shaped rows, and a ping
// over the live connection.
func (mb *micro) serving(in *instance, li *vector.Batch) {
	all := floorW1(lineitemOf(li))
	if len(all) < frameRows {
		all = floorW4(in.data.Tables["customer"])
	}
	rows := all[:min(len(all), frameRows)]
	resp := &server.Response{ID: 1, Type: server.RespRows, Rows: rows}
	mb.out["server.frame_encode_ns_per_row"] = mb.nsPer(len(rows), func() { mb.keep(server.WriteFrame(io.Discard, resp)) })
	var frame bytes.Buffer
	if err := server.WriteFrame(&frame, resp); err != nil {
		mb.keep(err)
		return
	}
	mb.out["server.frame_bytes_per_row"] = float64(frame.Len()) / float64(len(rows))
	mb.out["server.frame_decode_ns_per_row"] = mb.nsPer(len(rows), func() { mb.keep(decodeFrame(bytes.NewReader(frame.Bytes()))) })

	c, err := server.Dial(in.addr)
	if err != nil {
		mb.keep(err)
		return
	}
	defer c.Close()
	mb.out["server.ping_us"] = mb.nsPer(1, func() { mb.keep(c.Ping()) }) / 1e3
}

// engine times Q01 and Q06 in-process against their floors, and Q01 with
// profiling on against off.
func (mb *micro) engine(ctx context.Context, in *instance) {
	cols := lineitemOf(in.data.Tables["lineitem"])
	rows := len(cols.shipdate)
	inproc := func(q int) float64 {
		return mb.nsPer(rows, func() {
			_, err := in.db.QuerySQL(tpch.SQLQueries[q])
			mb.keep(err)
		})
	}
	profiled := func() float64 {
		return mb.nsPer(rows, func() {
			_, err := in.db.QueryProfileSQL(ctx, tpch.SQLQueries[1])
			mb.keep(err)
		})
	}
	// Profiled before and after the plain run, so that a drift of the machine
	// during the three measurements does not read as profiling overhead.
	p0, q01, p1 := profiled(), inproc(1), profiled()
	mb.out["obs.profile_overhead_ratio"] = ratio((p0+p1)/2, q01)
	q06 := inproc(6)
	f01 := mb.nsPer(rows, func() { floorQ01(cols) })
	f06 := mb.nsPer(rows, func() { floorQ06(cols) })
	mb.out["floor.q01_ns_per_row"], mb.out["floor.q06_ns_per_row"] = f01, f06
	mb.out["core.q01_x_floor"], mb.out["core.q06_x_floor"] = ratio(q01, f01), ratio(q06, f06)
}
