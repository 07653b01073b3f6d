package sql

import (
	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// This file is phase 1 of the multi-phase SELECT planner: binding. A block is
// the planning scope of one SELECT; binding resolves every FROM entry (base
// table, derived table) and every column reference against it, recording
// per-source column usage. Phase 2 (decorrelate.go) turns subquery
// predicates into hidden sources, phase 3 (stats.go) orders the join tree by
// estimated cardinality, and phase 4 (lower.go) emits plan.Node operators.

// srcKind classifies how a source joins into its block's plan.
type srcKind uint8

const (
	srcInner     srcKind = iota // plain FROM entry / inner join
	srcLeftOuter                // right side of a LEFT [OUTER] JOIN
	srcSemi                     // decorrelated EXISTS / IN (SELECT ...)
	srcAnti                     // decorrelated NOT EXISTS / NOT IN (SELECT ...)
	srcSingle                   // decorrelated scalar subquery (single-row join)
)

// source is one relation feeding a SELECT block: a base table, a derived
// table, or a hidden source produced by decorrelating a subquery predicate.
type source struct {
	alias  string
	table  string        // base table name; "" for derived and hidden sources
	sub    plan.Node     // lowered plan for derived and hidden sources
	schema vector.Schema // base table schema, or the sub plan's output schema
	kind   srcKind
	on     Expr // ON condition from the FROM clause (nil for the first entry)
	pos    Pos
	hidden bool // invisible to user name resolution (decorrelated subquery)

	used    map[string]bool // columns referenced anywhere (scan pruning)
	valUsed map[string]bool // columns referenced outside pure join-key equalities

	// Decorrelation attachment (hidden sources only): each left key is an
	// outer-block column reference, each right key an output column of sub.
	// Empty leftKeys marks an uncorrelated scalar joined on a constant key.
	leftKeys  []*ColRef
	rightKeys []string

	phys map[string]string // output renames (original -> physical name)
}

// outCol returns the physical (possibly renamed) output name of a column.
func (s *source) outCol(name string) string {
	if p, ok := s.phys[name]; ok {
		return p
	}
	return name
}

// block is the per-SELECT planning scope.
type block struct {
	cat     plan.Catalog
	stmt    *SelectStmt
	outer   *block // enclosing block for correlated subqueries; nil at top level
	srcs    []*source
	nHidden *int // shared hidden-source counter (unique names across the query)

	// postSubs holds uncorrelated scalar subqueries referenced from HAVING;
	// they join in above the aggregation rather than below it.
	postSubs []*source

	// tr receives bind/decorrelate/joinorder phase spans. It is set only on
	// the top-level block of a traced compile — sub-blocks leave it nil so
	// their time folds into whichever top-level phase invoked them instead
	// of being counted twice.
	tr *obs.Trace
}

// newBlock binds the FROM clause of stmt: base tables resolve against the
// catalog, derived tables lower recursively (they cannot see the enclosing
// scope — no LATERAL).
func newBlock(stmt *SelectStmt, cat plan.Catalog, outer *block) (*block, error) {
	b := &block{cat: cat, stmt: stmt, outer: outer}
	if outer != nil {
		b.nHidden = outer.nHidden
	} else {
		b.nHidden = new(int)
	}
	for _, f := range stmt.From {
		for _, s := range b.srcs {
			if s.alias == f.Alias {
				return nil, errf(f.Pos, "duplicate table alias %q", f.Alias)
			}
		}
		src := &source{
			alias: f.Alias, table: f.Table, on: f.On, pos: f.Pos,
			used: make(map[string]bool), valUsed: make(map[string]bool),
		}
		if f.Left {
			src.kind = srcLeftOuter
		}
		if f.Sub != nil {
			sb, err := newBlock(f.Sub, cat, nil)
			if err != nil {
				return nil, err
			}
			node, err := sb.lower()
			if err != nil {
				return nil, err
			}
			schema, err := node.Schema(cat)
			if err != nil {
				return nil, err
			}
			src.table, src.sub, src.schema = "", node, schema
			// A derived table emits every one of its output columns whether
			// or not the outer block reads them, so they all take part in
			// duplicate-name resolution (and rename like any read column).
			for _, fld := range schema {
				src.used[fld.Name] = true
				src.valUsed[fld.Name] = true
			}
		} else {
			schema, err := cat.TableSchema(f.Table)
			if err != nil {
				return nil, errf(f.Pos, "unknown table %q", f.Table)
			}
			src.schema = schema
		}
		b.srcs = append(b.srcs, src)
	}
	return b, nil
}

// resolve finds the visible source owning a column reference.
func (b *block) resolve(c *ColRef) (*source, vector.Field, error) {
	if c.Table != "" {
		for _, s := range b.srcs {
			if s.hidden || s.alias != c.Table {
				continue
			}
			f, err := s.schema.Field(c.Name)
			if err != nil {
				return nil, vector.Field{}, errf(c.P, "table %q has no column %q", c.Table, c.Name)
			}
			return s, f, nil
		}
		return nil, vector.Field{}, errf(c.P, "unknown table alias %q", c.Table)
	}
	var found *source
	var field vector.Field
	for _, s := range b.srcs {
		if s.hidden {
			continue
		}
		if j := s.schema.Index(c.Name); j >= 0 {
			if found != nil {
				return nil, vector.Field{}, errf(c.P, "ambiguous column %q (in %s and %s)",
					c.Name, found.alias, s.alias)
			}
			found, field = s, s.schema[j]
		}
	}
	if found == nil {
		return nil, vector.Field{}, errf(c.P, "unknown column %q", c.Name)
	}
	return found, field, nil
}

// resolveAny is resolve extended to the hidden decorrelated sources, whose
// generated column names (__kN, __sqN) are unique by construction. It backs
// conjunct classification and physical-name rewriting after decorrelation.
func (b *block) resolveAny(c *ColRef) (*source, vector.Field, error) {
	if s, f, err := b.resolve(c); err == nil {
		return s, f, nil
	} else if c.Table != "" {
		return nil, vector.Field{}, err
	}
	for _, s := range b.srcs {
		if !s.hidden {
			continue
		}
		if j := s.schema.Index(c.Name); j >= 0 {
			return s, s.schema[j], nil
		}
	}
	return nil, vector.Field{}, errf(c.P, "unknown column %q", c.Name)
}

// probes reports whether a reference resolves in this block without raising
// the resolution error (used to classify correlated references).
func (b *block) probes(c *ColRef) bool {
	_, _, err := b.resolve(c)
	return err == nil
}

// bindUse resolves every column reference in e, marking value usage.
// Subquery expressions are skipped — they bind inside their own block during
// decorrelation. When allowAggs is false, aggregate calls are rejected.
func (b *block) bindUse(e Expr, allowAggs bool) error {
	var err error
	walk(e, func(e Expr) bool {
		if err != nil {
			return false
		}
		switch x := e.(type) {
		case *ColRef:
			var s *source
			var f vector.Field
			if s, f, err = b.resolve(x); err == nil {
				s.used[f.Name] = true
				s.valUsed[f.Name] = true
			}
		case *FuncCall:
			if !aggFuncs[x.Name] {
				return true
			}
			if !allowAggs {
				err = errf(x.P, "aggregate %s() is only allowed in the select list", x.Name)
			} else {
				// no nested aggregates inside an aggregate argument
				err = b.bindUse(x.Arg, false)
			}
			return false
		}
		return true
	})
	return err
}

// eqCols matches a bare column equality l = r, the shape of a join key and of
// a correlation condition.
func eqCols(c Expr) (l, r *ColRef, ok bool) {
	if be, isBin := c.(*BinExpr); isBin && be.Op == "=" {
		l, _ = be.L.(*ColRef)
		r, _ = be.R.(*ColRef)
	}
	return l, r, l != nil && r != nil
}

// bindOnUse resolves an ON condition. Conjuncts shaped like prospective join
// keys (col = col across two sources) mark key-only usage — they bind
// against each join side's own schema, so duplicate-name renaming does not
// apply to them.
func (b *block) bindOnUse(on Expr) error {
	for _, c := range splitAnd(on) {
		if lc, rc, ok := eqCols(c); ok {
			ls, lf, lerr := b.resolve(lc)
			rs, rf, rerr := b.resolve(rc)
			if lerr == nil && rerr == nil && ls != rs {
				ls.used[lf.Name] = true
				rs.used[rf.Name] = true
				continue
			}
		}
		if err := b.bindUse(c, false); err != nil {
			return err
		}
	}
	return nil
}

// srcsOf returns the set of sources an expression references, including the
// hidden ones; subquery expressions contribute nothing (their references
// live in their own block).
func (b *block) srcsOf(e Expr) map[*source]bool {
	out := make(map[*source]bool)
	walk(e, func(e Expr) bool {
		if x, ok := e.(*ColRef); ok {
			if s, _, err := b.resolveAny(x); err == nil {
				out[s] = true
			}
		}
		return true
	})
	return out
}

// assignPhys gives duplicate value-used column names unique physical names
// ("alias_col") so the joined output resolves every reference by bare name.
// The first source (in join order) owning a name keeps it; later sources are
// renamed only when the column's value is actually read — pure join-key
// duplicates keep their names, since keys bind against each side's own
// schema and the duplicate is never referenced from the joined output.
func (b *block) assignPhys(order []int) {
	taken := make(map[string]bool)
	for _, i := range order {
		s := b.srcs[i]
		s.phys = make(map[string]string)
		for _, f := range s.schema {
			if !s.used[f.Name] {
				continue
			}
			if taken[f.Name] && s.valUsed[f.Name] {
				name := s.alias + "_" + f.Name
				for taken[name] {
					name += "_"
				}
				s.phys[f.Name] = name
				taken[name] = true
				continue
			}
			taken[f.Name] = true
		}
	}
}

// rewriteRefs rewrites every column reference in e to its bare physical name
// in the joined output. Subquery expressions must have been decorrelated
// away before this runs; unresolvable references are left as-is for the
// expression lowering to report against the concrete schema.
func (b *block) rewriteRefs(e Expr) Expr {
	return rewrite(e, func(e Expr) (Expr, bool) {
		x, ok := e.(*ColRef)
		if !ok {
			return nil, false
		}
		if s, f, err := b.resolveAny(x); err == nil {
			return &ColRef{Name: s.outCol(f.Name), P: x.P}, true
		}
		if x.Table != "" {
			return &ColRef{Name: x.Name, P: x.P}, true
		}
		return x, true
	})
}
