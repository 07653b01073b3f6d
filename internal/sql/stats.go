package sql

import (
	"vectorh/internal/expr"
	"vectorh/internal/plan"
	"vectorh/internal/sql/joinorder"
)

// This file is phase 3 of the multi-phase SELECT planner: stats-driven join
// ordering over the catalog's plan.Stats, implemented by core.Engine. A base
// table's cardinality is its live row count scaled by the selectivity of the
// filter pushed to it — expr.Selectivity over the catalog's MinMax column
// ranges, the model the rewriter's estimates use too, so the ~N an EXPLAIN
// prints on a filtered scan is the number the order was chosen by. The
// ordering itself is joinorder.Greedy; blocks with outer joins, derived
// tables, or a stats-less catalog keep their written FROM order, so
// hand-shaped plans and catalog-less tests are unaffected.

// estimateRows estimates a base source's output rows after its filter (has
// false for none), alongside the unfiltered base-table row count.
func estimateRows(st plan.Stats, s *source, filter plan.Expr, has bool) (rows, base float64, ok bool) {
	n, err := st.TableRows(s.table)
	if err != nil {
		return 0, 0, false
	}
	base, rows = float64(n), float64(n)
	if has {
		pred, err := filter.Bind(s.schema)
		if err != nil {
			return 0, 0, false
		}
		rows *= expr.Selectivity(pred, func(col int) (int64, int64, bool) {
			return st.ColumnRange(s.table, s.schema[col].Name)
		})
	}
	return max(rows, 1), base, true
}

// distinctEst estimates the distinct values of a join-key column: the
// column's MinMax width when the catalog has a range for it, capped by the
// source's base-table rows (a relation cannot hold more distinct keys than
// rows). Without a range the estimate is the base row count itself — the
// FK-side assumption that every row carries a distinct key, which keeps
// high-distinct FK edges preferred over low-distinct ones like nationkey.
func distinctEst(st plan.Stats, s *source, col string, base float64) float64 {
	v := base
	if lo, hi, ok := st.ColumnRange(s.table, col); ok {
		v = min(v, float64(hi-lo)+1)
	}
	return max(v, 1)
}

// orderSources decides the join order of the block's visible sources. The
// greedy search applies only when no source is outer-joined and every
// visible source is a base table the catalog has stats for; otherwise (and
// for a disconnected join graph) the written FROM order stands. filters
// holds each source's lowered pushed conjuncts.
func (b *block) orderSources(filters map[*source]plan.Expr) []int {
	var vis []int
	for i, s := range b.srcs {
		if !s.hidden {
			vis = append(vis, i)
		}
	}
	st, ok := b.cat.(plan.Stats)
	if !ok || len(vis) < 2 {
		return vis
	}
	rels := make([]joinorder.Rel, len(vis))
	for k, i := range vis {
		s := b.srcs[i]
		if s.table == "" || s.kind == srcLeftOuter {
			return vis
		}
		filter, has := filters[s]
		rows, base, ok := estimateRows(st, s, filter, has)
		if !ok {
			return vis
		}
		rels[k] = joinorder.Rel{Rows: rows, Base: base}
	}

	// Join edges from the pooled ON equality conjuncts, each carrying the
	// distinct-value estimate of its key on both sides (MinMax width capped
	// by the side's base rows) so Greedy can cost the join output.
	idx := make(map[*source]int, len(vis))
	for k, i := range vis {
		idx[b.srcs[i]] = k
	}
	var edges []joinorder.Edge
	for _, i := range vis {
		s := b.srcs[i]
		if s.on == nil {
			continue
		}
		for _, c := range splitAnd(s.on) {
			lc, rc, ok := eqCols(c)
			if !ok {
				continue
			}
			ls, _, lerr := b.resolve(lc)
			rs, _, rerr := b.resolve(rc)
			if lerr != nil || rerr != nil || ls == rs {
				continue
			}
			li, lok := idx[ls]
			ri, rok := idx[rs]
			if lok && rok {
				edges = append(edges, joinorder.Edge{
					A: li, B: ri,
					DistA: distinctEst(st, ls, lc.Name, rels[li].Base),
					DistB: distinctEst(st, rs, rc.Name, rels[ri].Base),
				})
			}
		}
	}
	greedy := joinorder.Greedy(rels, edges)
	if greedy == nil {
		return vis
	}
	out := make([]int, len(greedy))
	for k, g := range greedy {
		out[k] = vis[g]
	}
	return out
}
