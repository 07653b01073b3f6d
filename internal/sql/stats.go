package sql

import (
	"vectorh/internal/sql/joinorder"
	"vectorh/internal/vector"
)

// This file is phase 3 of the multi-phase SELECT planner: stats-driven join
// ordering. Base-table cardinalities come from the catalog's row counts and
// are scaled by per-conjunct selectivities estimated from colstore MinMax
// column ranges (both optional interfaces of the catalog, implemented by
// core.Engine). The ordering itself is joinorder.Greedy; blocks with outer
// joins, derived tables without stats, or a stats-less catalog keep their
// written FROM order, so hand-shaped plans and catalog-less tests are
// unaffected.

// tableStats is the optional row-count interface of the catalog.
type tableStats interface {
	TableRows(table string) (int64, error)
}

// columnStats is the optional MinMax-range interface of the catalog, the
// SQL-layer view of the colstore block summaries (integer-backed kinds:
// int32/int64 and dates).
type columnStats interface {
	ColumnRange(table, col string) (lo, hi int64, ok bool)
}

// defaultSel is the selectivity charged to a pushed conjunct whose shape or
// column kind yields no MinMax estimate (the classic 1/3 guess).
const defaultSel = 1.0 / 3

// estimateRows estimates a base source's output rows after its pushed
// conjuncts, alongside the unfiltered base-table row count. ok is false when
// the catalog has no stats for it.
func (b *block) estimateRows(s *source, pushed []Expr) (rows, base float64, ok bool) {
	if s.table == "" {
		return 0, 0, false
	}
	ts, ok := b.cat.(tableStats)
	if !ok {
		return 0, 0, false
	}
	n, err := ts.TableRows(s.table)
	if err != nil {
		return 0, 0, false
	}
	base = float64(n)
	rows = base
	cs, hasCS := b.cat.(columnStats)
	for _, c := range pushed {
		sel := defaultSel
		if hasCS {
			sel = conjSelectivity(s.table, c, cs)
		}
		rows *= sel
	}
	if rows < 1 {
		rows = 1
	}
	return rows, base, true
}

// mirrorCmp is a comparison operator with its operands swapped.
var mirrorCmp = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

// intLit returns the value of an integer or date literal.
func intLit(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.V, true
	case *DateLit:
		return int64(vector.AddMonths(vector.MustDate(x.V), x.Months)), true
	}
	return 0, false
}

// conjSelectivity estimates one conjunct's selectivity over its base table,
// from the MinMax range of the referenced column when the conjunct is a
// literal comparison over an integer-backed column (ints and dates), and the
// 1/3 default otherwise. The uniform-distribution overlap fraction mirrors
// what the scan-level MinMax skipping achieves physically.
func conjSelectivity(table string, c Expr, cs columnStats) float64 {
	rangeSel := func(col *ColRef, frac func(lo, hi int64) float64) float64 {
		lo, hi, ok := cs.ColumnRange(table, col.Name)
		if !ok || hi < lo {
			return defaultSel
		}
		f := frac(lo, hi)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	width := func(lo, hi int64) float64 { return float64(hi-lo) + 1 }

	switch x := c.(type) {
	case *BinExpr:
		col, okCol := x.L.(*ColRef)
		lit, okLit := intLit(x.R)
		op := x.Op
		if !okCol || !okLit {
			// reversed: literal op column
			col, okCol = x.R.(*ColRef)
			lit, okLit = intLit(x.L)
			if !okCol || !okLit {
				return defaultSel
			}
			op = mirrorCmp[op]
		}
		switch op {
		case "=":
			return rangeSel(col, func(lo, hi int64) float64 { return 1 / width(lo, hi) })
		case "<":
			return rangeSel(col, func(lo, hi int64) float64 { return float64(lit-lo) / width(lo, hi) })
		case "<=":
			return rangeSel(col, func(lo, hi int64) float64 { return float64(lit-lo+1) / width(lo, hi) })
		case ">":
			return rangeSel(col, func(lo, hi int64) float64 { return float64(hi-lit) / width(lo, hi) })
		case ">=":
			return rangeSel(col, func(lo, hi int64) float64 { return float64(hi-lit+1) / width(lo, hi) })
		}
		return defaultSel
	case *BetweenExpr:
		col, okCol := x.E.(*ColRef)
		lo, okLo := intLit(x.Lo)
		hi, okHi := intLit(x.Hi)
		if !okCol || !okLo || !okHi {
			return defaultSel
		}
		return rangeSel(col, func(clo, chi int64) float64 {
			a, z := max(lo, clo), min(hi, chi)
			return (float64(z-a) + 1) / width(clo, chi)
		})
	case *InExpr:
		if x.Not {
			return defaultSel
		}
		col, okCol := x.E.(*ColRef)
		if !okCol || len(x.Ints) == 0 {
			return defaultSel
		}
		return rangeSel(col, func(lo, hi int64) float64 {
			return float64(len(x.Ints)) / width(lo, hi)
		})
	}
	return defaultSel
}

// distinctEst estimates the distinct values of a join-key column: the
// column's MinMax width when the catalog has an integer range for it, capped
// by the source's base-table rows (a relation cannot hold more distinct keys
// than rows). Without a range the estimate is the base row count itself —
// the FK-side assumption that every row carries a distinct key, which keeps
// high-distinct FK edges preferred over low-distinct ones like nationkey.
func (b *block) distinctEst(s *source, col string, base float64) float64 {
	v := base
	if cs, ok := b.cat.(columnStats); ok && s.table != "" {
		if lo, hi, ok2 := cs.ColumnRange(s.table, col); ok2 && hi >= lo {
			if w := float64(hi-lo) + 1; w < v {
				v = w
			}
		}
	}
	if v < 1 {
		v = 1
	}
	return v
}

// orderSources decides the join order of the block's visible sources. The
// greedy search applies only when no source is outer-joined and every
// visible source is a base table with catalog row counts; otherwise (and for
// a disconnected join graph) the written FROM order stands. pushed holds the
// per-source single-table conjuncts for selectivity scaling; the estimate is
// recorded on each source for EXPLAIN either way.
func (b *block) orderSources(pushed map[*source][]Expr) []int {
	var vis []int
	for i, s := range b.srcs {
		if !s.hidden {
			vis = append(vis, i)
		}
	}
	fromOrder := append([]int(nil), vis...)
	ordered := true
	rels := make([]joinorder.Rel, len(vis))
	baseRows := make(map[*source]float64, len(vis))
	for k, i := range vis {
		s := b.srcs[i]
		rows, base, ok := b.estimateRows(s, pushed[s])
		s.rows = rows
		baseRows[s] = base
		if !ok || s.kind == srcLeftOuter {
			ordered = false
		}
		rels[k] = joinorder.Rel{Rows: rows, Base: base}
	}
	if !ordered || len(vis) < 2 {
		return fromOrder
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
			li, lok2 := idx[ls]
			ri, rok2 := idx[rs]
			if lok2 && rok2 {
				edges = append(edges, joinorder.Edge{
					A: li, B: ri,
					DistA: b.distinctEst(ls, lc.Name, baseRows[ls]),
					DistB: b.distinctEst(rs, rc.Name, baseRows[rs]),
				})
			}
		}
	}
	greedy := joinorder.Greedy(rels, edges)
	if greedy == nil {
		return fromOrder
	}
	out := make([]int, len(greedy))
	for k, g := range greedy {
		out[k] = vis[g]
	}
	return out
}
