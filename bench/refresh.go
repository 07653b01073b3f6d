package main

import (
	"context"
	"fmt"
	"time"

	"vectorh/internal/server"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// refresh_mix: reads beside writes, one session. A round is
//
//	RF1 chunk (ordersPerChunk new orders + their lineitems, INSERT)
//	-> pass of R -> RF2 chunk (ordersPerChunk keys, DELETE) -> pass of R
//
// repeated until the window closes, so R always runs with uncommitted-to-disk
// deltas in the PDTs. Chunks are cut from one tpch.RF1 / tpch.RF2Keys draw
// whose seeds derive from the run seed.
const (
	ordersPerChunk = 25
	rowsPerInsert  = 100
	maxRounds      = 240 // chunks pre-drawn; ~3x what the window fits today
)

type refreshPlan struct {
	orders, items *vector.Batch // RF1 rows, maxRounds*ordersPerChunk orders
	itemEnd       []int         // itemEnd[k]: end of order k's lineitems in items
	keys          []int64       // RF2 order keys
	baseItems     map[int64]int // lineitems per order key in the loaded data
}

func newRefreshPlan(d *tpch.Data, seed int64) *refreshPlan {
	n := maxRounds * ordersPerChunk
	if have := d.Tables["orders"].Len() / 2; n > have {
		n = have / ordersPerChunk * ordersPerChunk // never delete more than half of a tiny table
	}
	p := &refreshPlan{keys: tpch.RF2Keys(d, n, seed*2+1), baseItems: map[int64]int{}}
	p.orders, p.items = tpch.RF1(d, n, seed*2)
	okeys := p.orders.Vecs[0].Int64s()
	ikeys := p.items.Vecs[0].Int64s()
	p.itemEnd = make([]int, len(okeys))
	j := 0
	for k, key := range okeys {
		for j < len(ikeys) && ikeys[j] == key {
			j++
		}
		p.itemEnd[k] = j
	}
	for _, key := range d.Tables["lineitem"].Vecs[0].Int64s() {
		p.baseItems[key]++
	}
	return p
}

func (p *refreshPlan) rounds() int { return len(p.keys) / ordersPerChunk }

func sliceBatch(b *vector.Batch, lo, hi int) *vector.Batch {
	out := &vector.Batch{Vecs: make([]*vector.Vec, len(b.Vecs))}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(lo, hi)
	}
	return out
}

func (p *refreshPlan) itemStart(order int) int {
	if order == 0 {
		return 0
	}
	return p.itemEnd[order-1]
}

// dml is one DML statement with the affected-row count it must report.
type dml struct {
	sql  string
	rows int64
}

func insertDML(table string, schema vector.Schema, b *vector.Batch) []dml {
	var out []dml
	for i, s := range tpch.InsertSQL(table, schema, b, rowsPerInsert) {
		n := min(b.Len()-i*rowsPerInsert, rowsPerInsert)
		out = append(out, dml{s, int64(n)})
	}
	return out
}

// rf1 renders chunk r as INSERT statements, orders before lineitems.
func (p *refreshPlan) rf1(r int) []dml {
	lo, hi := r*ordersPerChunk, (r+1)*ordersPerChunk
	out := insertDML("orders", tpch.OrdersSchema, sliceBatch(p.orders, lo, hi))
	return append(out, insertDML("lineitem", tpch.LineitemSchema,
		sliceBatch(p.items, p.itemStart(lo), p.itemEnd[hi-1]))...)
}

// rf2 renders chunk r as DELETE statements, lineitems before orders.
func (p *refreshPlan) rf2(r int) []dml {
	keys := p.keys[r*ordersPerChunk : (r+1)*ordersPerChunk]
	var items int64
	for _, k := range keys {
		items += int64(p.baseItems[k])
	}
	sqls := tpch.RF2SQL(keys)
	return []dml{{sqls[0], items}, {sqls[1], int64(len(keys))}}
}

// refreshed returns the logical database after `rounds` complete rounds: what
// the oracles recompute the answers from.
func (p *refreshPlan) refreshed(d *tpch.Data, rounds int) *tpch.Data {
	deleted := map[int64]bool{}
	for _, k := range p.keys[:rounds*ordersPerChunk] {
		deleted[k] = true
	}
	rebuild := func(base, added *vector.Batch, addedRows int, schema vector.Schema) *vector.Batch {
		var keep []int32
		for i, key := range base.Vecs[0].Int64s() {
			if !deleted[key] {
				keep = append(keep, int32(i))
			}
		}
		out := vector.NewBatchForSchema(schema, len(keep)+addedRows)
		for c, v := range out.Vecs {
			v.AppendGather(base.Vecs[c], keep)
			v.AppendRange(added.Vecs[c], 0, addedRows)
		}
		return out
	}
	out := &tpch.Data{SF: d.SF, Tables: map[string]*vector.Batch{}}
	for name, b := range d.Tables {
		out.Tables[name] = b
	}
	nOrders := rounds * ordersPerChunk
	out.Tables["orders"] = rebuild(d.Tables["orders"], p.orders, nOrders, tpch.OrdersSchema)
	out.Tables["lineitem"] = rebuild(d.Tables["lineitem"], p.items, p.itemStart(nOrders), tpch.LineitemSchema)
	return out
}

// refreshRun is what the dirty phase measured.
type refreshRun struct {
	reads   *samples // R with deltas in flight; DML statements count in ops/busy only
	dmlRows int64
	dmlTime time.Duration
	rounds  int // complete rounds
}

func (r *refreshRun) execDML(ctx context.Context, c *server.Client, stmts []dml) {
	for _, st := range stmts {
		t0 := time.Now()
		n, err := c.Exec(ctx, st.sql)
		d := time.Since(t0)
		r.reads.ops++
		r.reads.busy += d
		r.dmlTime += d
		switch {
		case err != nil:
			r.reads.fail("DML: %v", err)
		case n != st.rows:
			r.reads.fail("DML affected %d rows, expected %d: %.60s", n, st.rows, st.sql)
		default:
			r.dmlRows += n
		}
	}
}

// measureRefresh runs rounds until the window closes (or the pre-drawn
// chunks run out, which ends the phase early).
func measureRefresh(ctx context.Context, c *server.Client, stmts []stmt, p *refreshPlan, window time.Duration) *refreshRun {
	run := &refreshRun{reads: newSamples(len(stmts))}
	exec := sqlText(c, stmts)
	pass := func() {
		for i := range stmts {
			run.reads.measure(ctx, exec, i, &stmts[i], nil)
		}
	}
	deadline := time.Now().Add(window)
	for r := 0; r < p.rounds() && time.Now().Before(deadline); r++ {
		ops0, busy0 := run.reads.ops, run.reads.busy
		run.execDML(ctx, c, p.rf1(r))
		pass()
		run.execDML(ctx, c, p.rf2(r))
		pass()
		run.reads.endPass(ops0, busy0)
		run.rounds++
	}
	return run
}

// checkCounts compares count(*) of the refreshed tables with the plan.
func (r *refreshRun) checkCounts(ctx context.Context, c *server.Client, want *tpch.Data) error {
	for _, table := range []string{"orders", "lineitem"} {
		res, err := c.Query(ctx, "select count(*) as n from "+table)
		if err != nil {
			return err
		}
		if got, exp := res.Rows[0][0], int64(want.Tables[table].Len()); got != exp {
			return fmt.Errorf("count(*) of %s is %v after refresh, expected %d", table, got, exp)
		}
	}
	return nil
}
