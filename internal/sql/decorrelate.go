package sql

import (
	"fmt"

	"vectorh/internal/plan"
)

// This file is phase 2 of the multi-phase SELECT planner: decorrelation.
// Subquery predicates rewrite into hidden sources that join into the block's
// tree with the join kinds the executor already implements:
//
//	[NOT] EXISTS (SELECT ...)   -> Semi/Anti join on the correlation keys
//	e [NOT] IN (SELECT ...)     -> Semi/Anti join on the IN key (+ correlation)
//	scalar (SELECT agg ...)     -> single-row inner join: correlated scalars
//	                               group by their correlation keys; an
//	                               uncorrelated scalar aggregates to one row
//	                               and joins on a synthesized constant key
//
// A correlated condition must appear in the subquery WHERE clause as a bare
// equality inner_col = outer_col; the outer side becomes the hidden source's
// join key against the enclosing block's tree. The rewritten predicate (for
// scalar subqueries) stays in the block as an ordinary conjunct referencing
// the hidden source's value column, so the single-row join's semantics match
// SQL: rows whose correlation key has no group vanish with the inner join,
// exactly as a NULL scalar comparison filters them.

// collectRefs gathers the column references of an expression, skipping
// nested subquery expressions (those bind inside their own blocks).
func collectRefs(e Expr) []*ColRef {
	var out []*ColRef
	walk(e, func(e Expr) bool {
		if x, ok := e.(*ColRef); ok {
			out = append(out, x)
		}
		return true
	})
	return out
}

// splitCorr scans the subquery block's WHERE clause for correlated conjuncts
// — references that resolve in the enclosing block rather than locally —
// removes them from the local WHERE, and returns the correlation key pairs.
// Correlation is only supported as a bare equality inner_col = outer_col.
func (sb *block) splitCorr() (inner, outerRefs []*ColRef, err error) {
	if sb.stmt.Where == nil {
		return nil, nil, nil
	}
	var kept []Expr
	for _, c := range splitAnd(sb.stmt.Where) {
		corr := false
		for _, ref := range collectRefs(c) {
			if !sb.probes(ref) && sb.outer != nil && sb.outer.probes(ref) {
				corr = true
				break
			}
		}
		if !corr {
			kept = append(kept, c)
			continue
		}
		lc, rc, ok := eqCols(c)
		if !ok {
			return nil, nil, errf(c.pos(),
				"correlated condition %s must be a simple equality between a subquery column and an outer column", c)
		}
		in, out := lc, rc
		if !sb.probes(in) {
			in, out = rc, lc
		}
		if !sb.probes(in) || sb.probes(out) {
			return nil, nil, errf(c.pos(),
				"correlated condition %s must relate one subquery column to one outer column", c)
		}
		if err := sb.outer.bindUse(out, false); err != nil {
			return nil, nil, err
		}
		inner = append(inner, in)
		outerRefs = append(outerRefs, out)
	}
	sb.stmt.Where = andAll(kept)
	return inner, outerRefs, nil
}

// andAll rebuilds a conjunction from its conjuncts (nil when empty).
func andAll(conj []Expr) Expr {
	if len(conj) == 0 {
		return nil
	}
	e := conj[0]
	for _, c := range conj[1:] {
		e = &BinExpr{Op: "and", L: e, R: c, P: c.pos()}
	}
	return e
}

// hiddenSource registers a lowered subquery as a hidden source of the block.
func (b *block) hiddenSource(n int, kind srcKind, node plan.Node,
	leftKeys []*ColRef, rightKeys []string, p Pos) (*source, error) {
	schema, err := node.Schema(b.cat)
	if err != nil {
		return nil, err
	}
	src := &source{
		alias: fmt.Sprintf("__sub%d", n), hidden: true, kind: kind,
		sub: node, schema: schema, leftKeys: leftKeys, rightKeys: rightKeys,
		pos: p, used: make(map[string]bool), valUsed: make(map[string]bool),
	}
	for _, f := range schema {
		src.used[f.Name] = true
		src.valUsed[f.Name] = true
	}
	return src, nil
}

// addExists decorrelates [NOT] EXISTS (SELECT ...) into a semi/anti-joined
// hidden source projecting the correlation keys.
func (b *block) addExists(x *ExistsExpr) error {
	sub, err := newBlock(x.Sub, b.cat, b)
	if err != nil {
		return err
	}
	inner, outerRefs, err := sub.splitCorr()
	if err != nil {
		return err
	}
	if len(inner) == 0 {
		return errf(x.P, "EXISTS subquery must be correlated with the outer query (inner_col = outer_col)")
	}
	n := *b.nHidden
	*b.nHidden++
	items := make([]SelectItem, len(inner))
	rightKeys := make([]string, len(inner))
	for i, c := range inner {
		rightKeys[i] = fmt.Sprintf("__k%d_%d", n, i)
		items[i] = SelectItem{Expr: c, Alias: rightKeys[i]}
	}
	sub.stmt.Items, sub.stmt.Star = items, false
	node, err := sub.lower()
	if err != nil {
		return err
	}
	kind := srcSemi
	if x.Not {
		kind = srcAnti
	}
	src, err := b.hiddenSource(n, kind, node, outerRefs, rightKeys, x.P)
	if err != nil {
		return err
	}
	b.srcs = append(b.srcs, src)
	return nil
}

// addInSub decorrelates e [NOT] IN (SELECT ...) into a semi/anti-joined
// hidden source keyed on the selected column plus any correlation keys.
func (b *block) addInSub(x *InSubquery) error {
	lc, ok := x.E.(*ColRef)
	if !ok {
		return errf(x.E.pos(), "IN (SELECT ...) requires a plain column on the left")
	}
	if err := b.bindUse(lc, false); err != nil {
		return err
	}
	sub, err := newBlock(x.Sub, b.cat, b)
	if err != nil {
		return err
	}
	inner, outerRefs, err := sub.splitCorr()
	if err != nil {
		return err
	}
	if sub.stmt.Star || len(sub.stmt.Items) != 1 {
		return errf(x.P, "IN subquery must select exactly one column")
	}
	n := *b.nHidden
	*b.nHidden++
	item := sub.stmt.Items[0]
	item.Alias = fmt.Sprintf("__q%d", n)
	items := []SelectItem{item}
	rightKeys := []string{item.Alias}
	for i, c := range inner {
		k := fmt.Sprintf("__k%d_%d", n, i)
		items = append(items, SelectItem{Expr: c, Alias: k})
		rightKeys = append(rightKeys, k)
	}
	sub.stmt.Items = items
	node, err := sub.lower()
	if err != nil {
		return err
	}
	kind := srcSemi
	if x.Not {
		kind = srcAnti
	}
	leftKeys := append([]*ColRef{lc}, outerRefs...)
	src, err := b.hiddenSource(n, kind, node, leftKeys, rightKeys, x.P)
	if err != nil {
		return err
	}
	b.srcs = append(b.srcs, src)
	return nil
}

// addScalar decorrelates a scalar subquery into a single-row-joined hidden
// source, returning the reference that replaces it in the conjunct. post
// marks HAVING conjuncts, whose sources attach above the aggregation.
func (b *block) addScalar(x *SubqueryExpr, post bool) (*ColRef, error) {
	sub, err := newBlock(x.Sub, b.cat, b)
	if err != nil {
		return nil, err
	}
	inner, outerRefs, err := sub.splitCorr()
	if err != nil {
		return nil, err
	}
	if sub.stmt.Star || len(sub.stmt.Items) != 1 {
		return nil, errf(x.P, "scalar subquery must select exactly one expression")
	}
	item := sub.stmt.Items[0]
	if len(collectAggs(item.Expr)) == 0 {
		return nil, errf(x.P, "scalar subquery must compute an aggregate")
	}
	n := *b.nHidden
	*b.nHidden++
	val := fmt.Sprintf("__sq%d", n)
	item.Alias = val
	ref := &ColRef{Name: val, P: x.P}

	if len(inner) > 0 {
		// Correlated: aggregate per correlation key, inner-join on the keys.
		if post {
			return nil, errf(x.P, "correlated scalar subqueries are not supported in HAVING")
		}
		if len(sub.stmt.GroupBy) > 0 {
			return nil, errf(x.P, "correlated scalar subquery cannot also use GROUP BY")
		}
		items := make([]SelectItem, 0, len(inner)+1)
		rightKeys := make([]string, 0, len(inner))
		groupBy := make([]GroupItem, 0, len(inner))
		for i, c := range inner {
			k := fmt.Sprintf("__k%d_%d", n, i)
			items = append(items, SelectItem{Expr: c, Alias: k})
			rightKeys = append(rightKeys, k)
			groupBy = append(groupBy, GroupItem{Name: c.Name, Pos: c.P})
		}
		items = append(items, item)
		sub.stmt.Items, sub.stmt.Star = items, false
		sub.stmt.GroupBy = groupBy
		node, err := sub.lower()
		if err != nil {
			return nil, err
		}
		src, err := b.hiddenSource(n, srcSingle, node, outerRefs, rightKeys, x.P)
		if err != nil {
			return nil, err
		}
		b.srcs = append(b.srcs, src)
		return ref, nil
	}

	// Uncorrelated: a one-row grand aggregate joined on a constant key.
	if len(sub.stmt.GroupBy) > 0 {
		return nil, errf(x.P, "scalar subquery cannot use GROUP BY")
	}
	sub.stmt.Items = []SelectItem{item}
	node, err := sub.lower()
	if err != nil {
		return nil, err
	}
	k := fmt.Sprintf("__k%d", n)
	node = plan.Project(node, plan.As(k, plan.Int(0)), plan.As(val, plan.Col(val)))
	src, err := b.hiddenSource(n, srcSingle, node, nil, []string{k}, x.P)
	if err != nil {
		return nil, err
	}
	if post {
		b.postSubs = append(b.postSubs, src)
	} else {
		b.srcs = append(b.srcs, src)
	}
	return ref, nil
}

// extractScalars replaces every scalar subquery in a top-level conjunct with
// its hidden-source value reference. Scalar subqueries under OR or NOT are
// rejected: the inner join that implements them filters unmatched rows,
// which only coincides with SQL semantics when the comparison is a top-level
// AND conjunct. EXISTS and IN subqueries nested below the conjunct level are
// rejected for the same reason.
func (b *block) extractScalars(c Expr, post bool) (Expr, error) {
	var err error
	guarded := false // below an OR or a NOT
	var visit func(e Expr) (Expr, bool)
	visit = func(e Expr) (Expr, bool) {
		if err != nil {
			return e, true
		}
		guards := false
		switch x := e.(type) {
		case *SubqueryExpr:
			if guarded {
				err = errf(x.P, "scalar subquery is only supported in top-level AND conjuncts")
				return e, true
			}
			var ref *ColRef
			if ref, err = b.addScalar(x, post); err != nil {
				return e, true
			}
			return ref, true
		case *ExistsExpr:
			err = errf(x.P, "EXISTS is only supported as a top-level WHERE conjunct")
			return e, true
		case *InSubquery:
			err = errf(x.P, "IN (SELECT ...) is only supported as a top-level WHERE conjunct")
			return e, true
		case *CaseExpr:
			// CASE branches evaluate conditionally: a single-row join cannot
			// model that, so reject subqueries inside them.
			if firstSubquery(x) != nil {
				err = errf(x.P, "subqueries inside CASE are not supported")
			}
			return e, true
		case *BinExpr:
			guards = x.Op == "or"
		case *NotExpr:
			guards = true
		}
		if guards && !guarded {
			guarded = true
			e = rewrite(e, visit) // visit declines e this time: its operands are rewritten guarded
			guarded = false
			return e, true
		}
		return nil, false
	}
	out := rewrite(c, visit)
	return out, err
}

// firstSubquery returns the first subquery expression in e, nil when there is
// none.
func firstSubquery(e Expr) Expr {
	var found Expr
	walk(e, func(e Expr) bool {
		switch e.(type) {
		case *SubqueryExpr, *ExistsExpr, *InSubquery:
			found = e
		}
		return found == nil
	})
	return found
}
