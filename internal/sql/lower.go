package sql

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// Compile parses src and lowers it to a logical plan bound against the
// catalog. The emitted tree uses only the existing plan.Node/plan.Expr
// vocabulary, so the Parallel Rewriter, Xchg parallelism and MinMax skipping
// apply to it like to any plan, and a baseline engine that implements
// plan.Catalog runs the same plan.
func Compile(src string, cat plan.Catalog) (plan.Node, error) {
	return CompileTraced(src, cat, nil)
}

// CompileTraced is Compile with per-phase spans (parse, bind, decorrelate,
// joinorder) recorded into tr. A nil trace makes every span a no-op, so this
// is also the implementation of Compile.
func CompileTraced(src string, cat plan.Catalog, tr *obs.Trace) (plan.Node, error) {
	parseDone := tr.StartPhase("parse")
	stmt, err := Parse(src)
	parseDone()
	if err != nil {
		return nil, err
	}
	return lower(stmt, cat, tr)
}

// lower plans a parsed statement in phases: bind the FROM clause and every
// reference (bind.go), decorrelate subquery predicates into hidden join
// sources (decorrelate.go), order the join tree by estimated cardinality
// (stats.go), and emit plan.Node operators (this file). Phase spans are
// recorded into the nil-safe tr; only the top-level block carries the trace
// (sub-block time folds into its caller's phase).
func lower(stmt *SelectStmt, cat plan.Catalog, tr *obs.Trace) (plan.Node, error) {
	b, err := newBlock(stmt, cat, nil)
	if err != nil {
		return nil, err
	}
	b.tr = tr
	return b.lower()
}

// collectAggs returns the aggregate calls in e, in source order. Subquery
// expressions are opaque: their aggregates belong to their own blocks.
func collectAggs(e Expr) []*FuncCall {
	var out []*FuncCall
	walk(e, func(e Expr) bool {
		if x, ok := e.(*FuncCall); ok && aggFuncs[x.Name] {
			out = append(out, x)
			return false
		}
		return true
	})
	return out
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if be, ok := e.(*BinExpr); ok && be.Op == "and" {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []Expr{e}
}

// onConj is one pooled ON conjunct, tagged with its origin so LEFT JOIN
// conditions stay with their own join (inner-join conjuncts float freely —
// their placement is semantically unconstrained, which is what lets the
// greedy ordering rearrange the tree).
type onConj struct {
	e    Expr
	src  *source // FROM entry the conjunct was written on
	left bool
}

// lower plans the block: bind the remaining clauses, decorrelate subqueries,
// classify WHERE conjuncts for pushdown, order and build the join tree,
// attach the decorrelated sources, then aggregate and project.
func (b *block) lower() (plan.Node, error) {
	stmt, cat := b.stmt, b.cat

	// Phase timing (top-level block only): mark closes the span opened at
	// the previous mark, so the section boundaries below double as phase
	// boundaries. Error returns simply leave the current span unrecorded.
	phaseStart := time.Now()
	mark := func(name string) {
		if b.tr != nil {
			b.tr.AddPhase(name, time.Since(phaseStart))
			phaseStart = time.Now()
		}
	}

	// ---- bind: resolve every reference, record column usage ----
	if stmt.Star {
		if len(stmt.GroupBy) > 0 {
			return nil, errf(stmt.From[0].Pos, "SELECT * cannot be combined with GROUP BY")
		}
		for _, s := range b.srcs {
			for _, f := range s.schema {
				s.used[f.Name] = true
				s.valUsed[f.Name] = true
			}
		}
	}
	for _, it := range stmt.Items {
		if err := b.bindUse(it.Expr, true); err != nil {
			return nil, err
		}
	}
	for i, f := range stmt.From {
		if i == 0 || f.On == nil {
			continue
		}
		if err := b.bindOnUse(f.On); err != nil {
			return nil, err
		}
	}
	if stmt.Where != nil {
		if err := b.bindUse(stmt.Where, false); err != nil {
			return nil, err
		}
	}

	aliases := make(map[string]SelectItem)
	for _, it := range stmt.Items {
		if it.Alias != "" {
			aliases[it.Alias] = it
		}
	}
	// Group items are either source columns or select-list aliases.
	var groups []groupCol
	for _, g := range stmt.GroupBy {
		ref := &ColRef{Name: g.Name, P: g.Pos}
		if s, f, err := b.resolve(ref); err == nil {
			s.used[f.Name] = true
			s.valUsed[f.Name] = true
			groups = append(groups, groupCol{name: g.Name, fromCol: true})
		} else if _, ok := aliases[g.Name]; ok {
			groups = append(groups, groupCol{name: g.Name, fromCol: false})
		} else {
			return nil, errf(g.Pos, "GROUP BY %q is neither a column nor a select alias", g.Name)
		}
	}
	if stmt.Having != nil {
		if err := b.bindUse(stmt.Having, true); err != nil {
			return nil, err
		}
	}

	mark("bind")

	// ---- decorrelate: subquery predicates become hidden join sources ----
	var kept []Expr
	if stmt.Where != nil {
		for _, c := range splitAnd(stmt.Where) {
			switch x := c.(type) {
			case *ExistsExpr:
				if err := b.addExists(x); err != nil {
					return nil, err
				}
			case *InSubquery:
				if err := b.addInSub(x); err != nil {
					return nil, err
				}
			default:
				e, err := b.extractScalars(c, false)
				if err != nil {
					return nil, err
				}
				kept = append(kept, e)
			}
		}
	}
	var having []Expr
	if stmt.Having != nil {
		for _, c := range splitAnd(stmt.Having) {
			switch c.(type) {
			case *ExistsExpr, *InSubquery:
				return nil, errf(c.pos(), "EXISTS and IN subqueries are not supported in HAVING")
			}
			e, err := b.extractScalars(c, true)
			if err != nil {
				return nil, err
			}
			having = append(having, e)
		}
	}

	mark("decorrelate")

	// ---- classify WHERE conjuncts: single-source pushdown vs residual ----
	pushed := make(map[*source][]Expr)
	var residual []Expr
	for _, c := range kept {
		ss := b.srcsOf(c)
		if len(ss) == 1 {
			var only *source
			for s := range ss {
				only = s
			}
			// Rows of an outer-joined source cannot be filtered below the
			// join, and hidden-source values join in above the tree.
			if !only.hidden && only.kind != srcLeftOuter {
				pushed[only] = append(pushed[only], c)
				continue
			}
		}
		residual = append(residual, c)
	}

	// Each source's pushed conjuncts lower once: the filter its subtree
	// applies is the one its join-order estimate measured.
	filters := make(map[*source]plan.Expr, len(pushed))
	for _, s := range b.srcs {
		if conj := pushed[s]; len(conj) > 0 {
			pred, err := lowerConj(s.schema, conj)
			if err != nil {
				return nil, err
			}
			filters[s] = pred
		}
	}

	// ---- order the join tree, fix physical output names ----
	order := b.orderSources(filters)
	b.assignPhys(order)
	mark("joinorder")

	// ---- per-source subtrees: scan/derived + pushed filters + renames ----
	nodes := make(map[*source]plan.Node, len(order))
	schemas := make(map[*source]vector.Schema, len(order))
	for _, i := range order {
		s := b.srcs[i]
		filter, has := filters[s]
		nodes[s], schemas[s] = b.sourceNode(s, filter, has)
	}

	// ---- join chain over the pooled ON conjuncts ----
	var pool []onConj
	for i, f := range stmt.From {
		if i == 0 || f.On == nil {
			continue
		}
		for _, c := range splitAnd(f.On) {
			pool = append(pool, onConj{e: c, src: b.srcs[i], left: f.Left})
		}
	}
	first := b.srcs[order[0]]
	cur, curSchema := nodes[first], schemas[first]
	inTree := map[*source]bool{first: true}
	consumed := make([]bool, len(pool))
	for _, i := range order[1:] {
		s := b.srcs[i]
		rightNode, rightPS := nodes[s], schemas[s]
		var lKeys, rKeys []string
		var rest, rightOnly []Expr
		for pi := range pool {
			pc := pool[pi]
			if consumed[pi] {
				continue
			}
			if pc.left && pc.src != s {
				continue
			}
			avail := true
			refsRight := false
			refsTree := false
			for rs := range b.srcsOf(pc.e) {
				switch {
				case rs == s:
					refsRight = true
				case inTree[rs]:
					refsTree = true
				default:
					avail = false
				}
			}
			if !avail {
				continue
			}
			consumed[pi] = true
			if lk, rk, ok := b.poolKey(pc.e, inTree, s); ok {
				lKeys = append(lKeys, lk)
				rKeys = append(rKeys, rk)
				continue
			}
			if s.kind == srcLeftOuter {
				if refsRight && !refsTree {
					rightOnly = append(rightOnly, pc.e)
					continue
				}
				return nil, errf(pc.e.pos(),
					"LEFT JOIN condition %s must be a key equality or a filter on the joined table", pc.e)
			}
			rest = append(rest, pc.e)
		}
		if len(lKeys) == 0 {
			return nil, errf(s.pos,
				"join with %q needs at least one equality condition between the joined tables", s.alias)
		}
		if s.kind == srcLeftOuter {
			if len(rightOnly) > 0 {
				pred, err := b.lowerRewritten(rightPS, rightOnly)
				if err != nil {
					return nil, err
				}
				rightNode = plan.Filter(rightNode, pred)
			}
			cur = plan.Join(plan.LeftOuterJoin, cur, rightNode, lKeys, rKeys)
			curSchema = append(curSchema.Clone(), rightPS...)
			curSchema = append(curSchema, vector.Field{Name: plan.MatchedCol, Type: vector.TBool})
		} else {
			join := plan.Join(plan.InnerJoin, cur, rightNode, lKeys, rKeys)
			curSchema = append(curSchema.Clone(), rightPS...)
			if len(rest) > 0 {
				pred, err := b.lowerRewritten(curSchema, rest)
				if err != nil {
					return nil, err
				}
				join.On(pred)
			}
			cur = join
		}
		inTree[s] = true
	}

	// ---- attach the decorrelated hidden sources ----
	for _, s := range b.srcs {
		if !s.hidden {
			continue
		}
		var err error
		cur, curSchema, err = b.attachHidden(cur, curSchema, s)
		if err != nil {
			return nil, err
		}
	}

	// ---- residual WHERE above the joins ----
	if len(residual) > 0 {
		pred, err := b.lowerRewritten(curSchema, residual)
		if err != nil {
			return nil, err
		}
		cur = plan.Filter(cur, pred)
	}

	// ---- aggregation ----
	hasAgg := false
	for _, it := range stmt.Items {
		if len(collectAggs(it.Expr)) > 0 {
			hasAgg = true
		}
	}
	for _, h := range having {
		if len(collectAggs(h)) > 0 {
			hasAgg = true
		}
	}
	node := cur
	var aggByText map[string]string
	if hasAgg || len(groups) > 0 {
		var err error
		if node, aggByText, err = b.lowerAggregate(cur, curSchema, groups, aliases, having); err != nil {
			return nil, err
		}
	} else if len(having) > 0 {
		return nil, errf(stmt.Having.pos(), "HAVING requires GROUP BY or an aggregate")
	} else if !stmt.Star {
		items := make([]postItem, len(stmt.Items))
		for i, it := range stmt.Items {
			re := b.rewriteRefs(it.Expr)
			e, err := lowerExpr(curSchema, re, true)
			if err != nil {
				return nil, err
			}
			items[i] = postItem{name: outName(it), ex: e}
			if c, ok := re.(*ColRef); ok && it.Alias == "" && c.Name == items[i].name {
				items[i].bare = c.Name
			}
		}
		node = project(cur, curSchema, items)
	}

	// ---- ORDER BY / LIMIT over the output schema ----
	outSchema, err := node.Schema(cat)
	if err != nil {
		return nil, err
	}
	var keys []plan.OrderKey
	for _, o := range stmt.OrderBy {
		// ORDER BY binds against the output schema by bare column name, so a
		// qualifier on a reference is simply not looked at.
		// Standard SQL ordinal: ORDER BY n sorts by the n-th output column.
		if il, ok := o.Expr.(*IntLit); ok {
			if il.V < 1 || il.V > int64(len(outSchema)) {
				return nil, errf(il.P, "ORDER BY position %d is out of range (1..%d)", il.V, len(outSchema))
			}
			keys = append(keys, plan.OrderKey{Expr: plan.Col(outSchema[il.V-1].Name), Desc: o.Desc})
			continue
		}
		// Aggregates in ORDER BY refer to their select-list output columns.
		e, err := rewriteAggsText(o.Expr, aggByText)
		if err != nil {
			return nil, err
		}
		if c, ok := e.(*ColRef); ok {
			dup := 0
			for _, f := range outSchema {
				if f.Name == c.Name {
					dup++
				}
			}
			if dup > 1 {
				return nil, errf(c.P, "ORDER BY %q is ambiguous in the output columns", c.Name)
			}
		}
		le, err := lowerExpr(outSchema, e, true)
		if err != nil {
			return nil, err
		}
		keys = append(keys, plan.OrderKey{Expr: le, Desc: o.Desc})
	}
	switch {
	case len(keys) > 0 && stmt.Limit >= 0:
		return plan.Top(node, stmt.Limit, keys...), nil
	case len(keys) > 0:
		return plan.OrderBy(node, keys...), nil
	case stmt.Limit >= 0:
		return plan.Limit(node, stmt.Limit), nil
	}
	return node, nil
}

// sourceNode builds one source's subtree: a column-pruned scan or the
// derived/hidden subplan, under the filter of the conjuncts pushed to it (has
// false for none), topped by a rename projection when duplicate output names
// forced physical renames.
func (b *block) sourceNode(s *source, filter plan.Expr, has bool) (plan.Node, vector.Schema) {
	var node plan.Node
	var ps vector.Schema
	if s.table != "" {
		var cols []string
		for _, f := range s.schema {
			if s.used[f.Name] {
				cols = append(cols, f.Name)
				ps = append(ps, f)
			}
		}
		if len(cols) == 0 { // e.g. SELECT count(*): scan one narrow column
			cols = []string{s.schema[0].Name}
			ps = vector.Schema{s.schema[0]}
		}
		node = plan.Scan(s.table, cols...)
	} else {
		node, ps = s.sub, s.schema // the subplan computes every output column
	}
	if has {
		node = plan.Filter(node, filter)
	}
	if len(s.phys) > 0 {
		exprs := make([]plan.NamedExpr, len(ps))
		renamed := make(vector.Schema, len(ps))
		for i, f := range ps {
			exprs[i] = plan.As(s.outCol(f.Name), plan.Col(f.Name))
			renamed[i] = vector.Field{Name: s.outCol(f.Name), Type: f.Type}
		}
		node = plan.Project(node, exprs...)
		ps = renamed
	}
	return node, ps
}

// poolKey recognizes an ON conjunct of the form tree.col = next.col (either
// orientation) with hash-compatible vector kinds, returning the physical key
// names. Kind-mismatched equalities (e.g. decimal vs float) stay residual
// predicates, where the comparison runs with the usual promotions.
func (b *block) poolKey(c Expr, inTree map[*source]bool, next *source) (lk, rk string, ok bool) {
	lc, rc, isEq := eqCols(c)
	if !isEq {
		return "", "", false
	}
	ls, lf, lerr := b.resolve(lc)
	rs, rf, rerr := b.resolve(rc)
	if lerr != nil || rerr != nil || lf.Type.Kind != rf.Type.Kind {
		return "", "", false
	}
	switch {
	case inTree[ls] && rs == next:
		return ls.outCol(lf.Name), rs.outCol(rf.Name), true
	case inTree[rs] && ls == next:
		return rs.outCol(rf.Name), ls.outCol(lf.Name), true
	}
	return "", "", false
}

// attachHidden joins one decorrelated subquery source into the tree: semi and
// anti joins keep the left schema; single-row scalar joins append the
// subquery's columns (and, for uncorrelated scalars, a synthesized constant
// key on the left).
func (b *block) attachHidden(cur plan.Node, curSchema vector.Schema, s *source) (plan.Node, vector.Schema, error) {
	if s.kind == srcSingle && len(s.leftKeys) == 0 {
		key := s.rightKeys[0]
		pass := make([]plan.NamedExpr, 0, len(curSchema)+1)
		for _, f := range curSchema {
			pass = append(pass, plan.As(f.Name, plan.Col(f.Name)))
		}
		pass = append(pass, plan.As(key, plan.Int(0)))
		left := plan.Project(cur, pass...)
		join := plan.Join(plan.InnerJoin, left, s.sub, []string{key}, []string{key})
		out := append(curSchema.Clone(), vector.Field{Name: key, Type: vector.TInt64})
		out = append(out, s.schema...)
		return join, out, nil
	}

	lKeys := make([]string, len(s.leftKeys))
	for i, c := range s.leftKeys {
		ls, lf, err := b.resolve(c)
		if err != nil {
			return nil, nil, err
		}
		rf, ferr := s.schema.Field(s.rightKeys[i])
		if ferr == nil && lf.Type.Kind != rf.Type.Kind {
			return nil, nil, errf(c.P, "subquery column (%s) and outer column %s (%s) have incompatible types",
				rf.Type, c.Name, lf.Type)
		}
		lKeys[i] = ls.outCol(lf.Name)
	}
	switch s.kind {
	case srcSemi, srcAnti:
		kind := plan.SemiJoin
		if s.kind == srcAnti {
			kind = plan.AntiJoin
		}
		return plan.Join(kind, cur, s.sub, lKeys, s.rightKeys), curSchema, nil
	default: // srcSingle, correlated
		join := plan.Join(plan.InnerJoin, cur, s.sub, lKeys, s.rightKeys)
		return join, append(curSchema.Clone(), s.schema...), nil
	}
}

// lowerRewritten rewrites each conjunct's references to physical names and
// lowers the conjunction over the given schema.
func (b *block) lowerRewritten(s vector.Schema, conj []Expr) (plan.Expr, error) {
	rw := make([]Expr, len(conj))
	for i, c := range conj {
		rw[i] = b.rewriteRefs(c)
	}
	return lowerConj(s, rw)
}

// postItem is one output projection entry.
type postItem struct {
	name string
	ex   plan.Expr
	bare string // non-empty when the item is a pass-through bare column
}

// project emits a ProjectNode unless the items are exactly the child schema.
func project(child plan.Node, childSchema vector.Schema, items []postItem) plan.Node {
	if len(items) == len(childSchema) {
		same := true
		for i, it := range items {
			if it.bare == "" || it.bare != childSchema[i].Name || it.name != childSchema[i].Name {
				same = false
				break
			}
		}
		if same {
			return child
		}
	}
	exprs := make([]plan.NamedExpr, len(items))
	for i, it := range items {
		exprs[i] = plan.As(it.name, it.ex)
	}
	return plan.Project(child, exprs...)
}

// outName picks the output column name of a select item.
func outName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	return it.Expr.String()
}

// groupCol is one GROUP BY target: a source column or a select-list alias.
// phys is its column name in the Aggregate input/output, which differs from
// name only when a duplicate forced a physical rename.
type groupCol struct {
	name    string
	phys    string
	fromCol bool
}

// lowerAggregate builds [pre-projection →] Aggregate [→ scalar-subquery
// joins] [→ HAVING filter] [→ post-projection].
// A pre-projection is emitted only when GROUP BY targets computed
// select-list aliases (as TPC-H Q7–Q9 do);
// otherwise aggregation runs directly over the joined/filtered source with
// aggregate arguments as inline expressions. HAVING aggregates missing from
// the select list are computed under hidden names and dropped by the post-
// projection; counts over an outer-joined table's columns count matched rows
// via the join's __matched flag, the engine's NULL-free left outer encoding.
func (b *block) lowerAggregate(cur plan.Node, curSchema vector.Schema, groups []groupCol,
	aliases map[string]SelectItem, having []Expr) (plan.Node, map[string]string, error) {
	stmt, cat := b.stmt, b.cat
	needPre := false
	groupSet := make(map[string]bool, len(groups))
	for i := range groups {
		g := &groups[i]
		if g.fromCol {
			s, f, err := b.resolve(&ColRef{Name: g.name})
			if err != nil {
				return nil, nil, err
			}
			g.phys = s.outCol(f.Name)
		} else {
			needPre = true
			g.phys = g.name
		}
		groupSet[g.name] = true
	}

	// Non-aggregated column refs in the select list must be group columns.
	for _, it := range stmt.Items {
		if it.Alias != "" && groupSet[it.Alias] && len(collectAggs(it.Expr)) == 0 {
			continue // this item *is* a computed group expression
		}
		if err := checkGrouped(it.Expr, groupSet); err != nil {
			return nil, nil, err
		}
	}
	for _, h := range having {
		if err := checkGrouped(h, groupSet); err != nil {
			return nil, nil, err
		}
	}

	// Name every aggregate call: select-list order first, then HAVING-only
	// aggregates under their canonical text (hidden — dropped by the post-
	// projection, which never references them).
	type aggInfo struct {
		call *FuncCall
		name string
	}
	var aggs []aggInfo
	aggName := make(map[*FuncCall]string)
	aggByText := make(map[string]string)
	taken := make(map[string]bool)
	for _, g := range groups {
		taken[g.name] = true
		taken[g.phys] = true
	}
	for _, it := range stmt.Items {
		for _, c := range collectAggs(it.Expr) {
			name := c.String()
			if it.Alias != "" && Expr(c) == it.Expr {
				name = it.Alias
			}
			for taken[name] {
				name += "_"
			}
			taken[name] = true
			aggs = append(aggs, aggInfo{c, name})
			aggName[c] = name
			aggByText[c.String()] = name
		}
	}
	for _, h := range having {
		for _, c := range collectAggs(h) {
			if n, ok := aggByText[c.String()]; ok {
				aggName[c] = n
				continue
			}
			name := c.String()
			for taken[name] {
				name += "_"
			}
			taken[name] = true
			aggs = append(aggs, aggInfo{c, name})
			aggName[c] = name
			aggByText[c.String()] = name
		}
	}

	groupNames := make([]string, len(groups))
	for i, g := range groups {
		groupNames[i] = g.phys
	}

	// With a pre-projection the group expressions and the aggregate arguments
	// are computed below the Aggregate, which then reads them as columns.
	var pre []plan.NamedExpr
	if needPre {
		for _, g := range groups {
			if g.fromCol {
				pre = append(pre, plan.As(g.phys, plan.Col(g.phys)))
				continue
			}
			e, err := lowerExpr(curSchema, b.rewriteRefs(aliases[g.name].Expr), true)
			if err != nil {
				return nil, nil, err
			}
			pre = append(pre, plan.As(g.name, e))
		}
	}
	items := make([]plan.AggItem, 0, len(aggs))
	for i, a := range aggs {
		if a.call.Star {
			items = append(items, plan.AStar(a.name))
			continue
		}
		fn, arg, err := b.aggArg(a.call, curSchema)
		if err != nil {
			return nil, nil, err
		}
		if needPre {
			argName := fmt.Sprintf("__arg%d", i)
			pre = append(pre, plan.As(argName, arg))
			arg = plan.Col(argName)
		}
		items = append(items, plan.A(a.name, fn, arg))
	}
	child := cur
	if needPre {
		child = plan.Project(cur, pre...)
	}
	aggNode := plan.Aggregate(child, groupNames, items...)
	aggSchema, err := aggNode.Schema(cat)
	if err != nil {
		return nil, nil, err
	}

	// Uncorrelated scalar subqueries referenced from HAVING join in above
	// the aggregation on a synthesized constant key.
	node := plan.Node(aggNode)
	schema := aggSchema
	for _, s := range b.postSubs {
		if node, schema, err = b.attachHidden(node, schema, s); err != nil {
			return nil, nil, err
		}
	}

	// HAVING: aggregate calls refer to their output columns, group columns
	// to their physical names.
	if len(having) > 0 {
		conj := make([]Expr, len(having))
		for i, h := range having {
			conj[i] = mapGroupPhys(rewriteAggs(h, aggName), groups)
		}
		pred, err := lowerConj(schema, conj)
		if err != nil {
			return nil, nil, err
		}
		node = plan.Filter(node, pred)
	}

	// Post-projection in select-list order.
	post := make([]postItem, len(stmt.Items))
	for i, it := range stmt.Items {
		name := outName(it)
		switch x := it.Expr.(type) {
		case *ColRef:
			if groupSet[x.Name] && it.Alias == "" {
				ph := x.Name
				for _, g := range groups {
					if g.name == x.Name {
						ph = g.phys
					}
				}
				post[i] = postItem{name: x.Name, ex: plan.Col(ph)}
				if ph == x.Name {
					post[i].bare = ph
				}
				continue
			}
		case *FuncCall:
			if n, isAgg := aggName[x]; isAgg {
				post[i] = postItem{name: n, ex: plan.Col(n), bare: n}
				continue
			}
		}
		if it.Alias != "" && groupSet[it.Alias] && len(collectAggs(it.Expr)) == 0 {
			// computed group expression: already materialized under its alias
			post[i] = postItem{name: it.Alias, ex: plan.Col(it.Alias), bare: it.Alias}
			continue
		}
		// general expression over aggregate results (e.g. 100*sum(a)/sum(b))
		e, err := lowerExpr(schema, mapGroupPhys(rewriteAggs(it.Expr, aggName), groups), true)
		if err != nil {
			return nil, nil, err
		}
		post[i] = postItem{name: name, ex: e}
	}
	return project(node, schema, post), aggByText, nil
}

// aggArg lowers one aggregate call into its logical function and argument
// expression. count over an outer-joined table's column becomes a sum of the
// join's match flag: the engine has no NULLs, so the flag is the only record
// of unmatched left rows (TPC-H Q13's count(o_orderkey)).
func (b *block) aggArg(c *FuncCall, curSchema vector.Schema) (plan.AggFuncName, plan.Expr, error) {
	if c.Name == "count" && !c.Distinct {
		if col, ok := c.Arg.(*ColRef); ok {
			if s, _, err := b.resolve(col); err == nil && s.kind == srcLeftOuter {
				return plan.Sum, plan.Case(plan.Col(plan.MatchedCol), plan.Int(1), plan.Int(0)), nil
			}
		}
	}
	fn, err := aggFuncName(c)
	if err != nil {
		return "", plan.Expr{}, err
	}
	arg, err := lowerExpr(curSchema, b.rewriteRefs(c.Arg), false)
	if err != nil {
		return "", plan.Expr{}, err
	}
	return fn, arg, nil
}

// mapGroupPhys rewrites bare references to renamed group columns into their
// physical names (a no-op unless a duplicate column name forced a rename).
func mapGroupPhys(e Expr, groups []groupCol) Expr {
	if !slices.ContainsFunc(groups, func(g groupCol) bool { return g.phys != g.name }) {
		return e
	}
	return rewrite(e, func(e Expr) (Expr, bool) {
		if x, ok := e.(*ColRef); ok {
			for _, g := range groups {
				if g.name == x.Name && g.phys != x.Name {
					return &ColRef{Name: g.phys, P: x.P}, true
				}
			}
		}
		return nil, false
	})
}

// rewriteAggsText replaces aggregate calls in an ORDER BY expression with
// references to the matching select-list aggregate's output column (matched
// by canonical text, since ORDER BY re-parses the call as a distinct AST
// node).
func rewriteAggsText(e Expr, aggByText map[string]string) (Expr, error) {
	var err error
	out := rewrite(e, func(e Expr) (Expr, bool) {
		x, ok := e.(*FuncCall)
		if !ok || !aggFuncs[x.Name] {
			return nil, false
		}
		n, ok := aggByText[x.String()]
		if !ok {
			if err == nil {
				err = errf(x.P, "aggregate %s in ORDER BY must also appear in the select list", x)
			}
			return x, true
		}
		return &ColRef{Name: n, P: x.P}, true
	})
	return out, err
}

// checkGrouped verifies every column ref outside aggregate arguments names a
// group column. References to decorrelated scalar-subquery values (__sqN)
// are single per group by construction and pass.
func checkGrouped(e Expr, groupSet map[string]bool) error {
	var err error
	walk(e, func(e Expr) bool {
		if err != nil {
			return false
		}
		switch x := e.(type) {
		case *ColRef:
			if !groupSet[x.Name] && !strings.HasPrefix(x.Name, "__sq") {
				err = errf(x.P, "column %q must appear in GROUP BY or inside an aggregate", x.Name)
			}
		case *FuncCall:
			return !aggFuncs[x.Name] // aggregate arguments may use any source column
		}
		return true
	})
	return err
}

// rewriteAggs replaces aggregate calls with references to their output
// columns, leaving every other node untouched.
func rewriteAggs(e Expr, aggName map[*FuncCall]string) Expr {
	return rewrite(e, func(e Expr) (Expr, bool) {
		if x, ok := e.(*FuncCall); ok {
			if n, ok := aggName[x]; ok {
				return &ColRef{Name: n, P: x.P}, true
			}
		}
		return nil, false
	})
}

// aggFuncName maps a parsed aggregate call to the logical function.
func aggFuncName(c *FuncCall) (plan.AggFuncName, error) {
	switch c.Name {
	case "sum":
		return plan.Sum, nil
	case "min":
		return plan.Min, nil
	case "max":
		return plan.Max, nil
	case "avg":
		return plan.Avg, nil
	case "count":
		if c.Distinct {
			return plan.CountDistinct, nil
		}
		return plan.Count, nil
	}
	return "", errf(c.P, "unknown aggregate %q", c.Name)
}

// lowerConj lowers a conjunct list into one predicate.
func lowerConj(s vector.Schema, conj []Expr) (plan.Expr, error) {
	var out plan.Expr
	for i, c := range conj {
		e, err := lowerExpr(s, c, false)
		if err != nil {
			return plan.Expr{}, err
		}
		if i == 0 {
			out = e
		} else {
			out = plan.And(out, e)
		}
	}
	return out, nil
}

// lowerExpr lowers a scalar AST expression over a concrete schema. top marks
// projection/group positions where a bare decimal column stays raw; anywhere
// nested, decimal columns convert to float64 (SQL decimal semantics) through
// plan.Dec.
func lowerExpr(s vector.Schema, e Expr, top bool) (plan.Expr, error) {
	switch x := e.(type) {
	case *ColRef:
		i := s.Index(x.Name)
		if i < 0 {
			return plan.Expr{}, errf(x.P, "unknown column %q", x.Name)
		}
		if s[i].Type == vector.TDecimal && !top {
			return plan.Dec(x.Name), nil
		}
		return plan.Col(x.Name), nil
	case *IntLit:
		return plan.Int(x.V), nil
	case *FloatLit:
		return plan.Float(x.V), nil
	case *StrLit:
		return plan.Str(x.V), nil
	case *DateLit:
		if x.Months != 0 {
			return plan.DateOffset(x.V, x.Months), nil
		}
		return plan.Date(x.V), nil
	case *BinExpr:
		if x.Op == "and" || x.Op == "or" {
			le, err := lowerExpr(s, x.L, false)
			if err != nil {
				return plan.Expr{}, err
			}
			re, err := lowerExpr(s, x.R, false)
			if err != nil {
				return plan.Expr{}, err
			}
			if x.Op == "and" {
				return plan.And(le, re), nil
			}
			return plan.Or(le, re), nil
		}
		le, re, lt, rt, err := lowerPair(s, x.L, x.R)
		if err != nil {
			return plan.Expr{}, err
		}
		// Reject type mismatches the execution layer would only hit at
		// runtime, with a source position instead.
		lStr, rStr := lt.Kind == vector.String, rt.Kind == vector.String
		switch x.Op {
		case "+", "-", "*", "/":
			if lStr || rStr {
				return plan.Expr{}, errf(x.P, "operator %q is not defined on strings", x.Op)
			}
		default:
			if lStr != rStr {
				return plan.Expr{}, errf(x.P, "cannot compare %s with %s", lt, rt)
			}
		}
		switch x.Op {
		case "+":
			return plan.Add(le, re), nil
		case "-":
			return plan.Sub(le, re), nil
		case "*":
			return plan.Mul(le, re), nil
		case "/":
			return plan.Div(le, re), nil
		case "=":
			return plan.EQ(le, re), nil
		case "<>":
			return plan.NE(le, re), nil
		case "<":
			return plan.LT(le, re), nil
		case "<=":
			return plan.LE(le, re), nil
		case ">":
			return plan.GT(le, re), nil
		case ">=":
			return plan.GE(le, re), nil
		}
		return plan.Expr{}, errf(x.P, "unsupported operator %q", x.Op)
	case *NotExpr:
		ce, err := lowerExpr(s, x.E, false)
		if err != nil {
			return plan.Expr{}, err
		}
		return plan.Not(ce), nil
	case *FuncCall:
		if aggFuncs[x.Name] {
			return plan.Expr{}, errf(x.P, "aggregate %s() is not allowed here", x.Name)
		}
		// year()
		ce, err := lowerExpr(s, x.Arg, false)
		if err != nil {
			return plan.Expr{}, err
		}
		if ct, cterr := ce.Type(s); cterr == nil && ct != vector.TDate {
			return plan.Expr{}, errf(x.P, "year() requires a date argument, got %s", ct)
		}
		return plan.Year(ce), nil
	case *LikeExpr:
		ce, err := lowerExpr(s, x.E, false)
		if err != nil {
			return plan.Expr{}, err
		}
		if x.Not {
			return plan.NotLike(ce, x.Pattern), nil
		}
		return plan.Like(ce, x.Pattern), nil
	case *SubstrExpr:
		// SQL positions are 1-based. The kernel reads from the first byte for
		// anything lower, which is not what the standard says, so it is not
		// offered; this is the one place SELECT and DML expressions all pass.
		if x.Start < 1 {
			return plan.Expr{}, errf(x.P, "SUBSTRING start must be at least 1, got %d", x.Start)
		}
		if x.Length < 0 {
			return plan.Expr{}, errf(x.P, "SUBSTRING length must not be negative, got %d", x.Length)
		}
		ce, err := lowerExpr(s, x.E, false)
		if err != nil {
			return plan.Expr{}, err
		}
		if ct, cterr := ce.Type(s); cterr == nil && ct.Kind != vector.String {
			return plan.Expr{}, errf(x.P, "SUBSTRING requires a string argument, got %s", ct)
		}
		return plan.Substr(ce, int(x.Start), int(x.Length)), nil
	case *InExpr:
		ce, err := lowerExpr(s, x.E, false)
		if err != nil {
			return plan.Expr{}, err
		}
		ct, cterr := ce.Type(s)
		var in plan.Expr
		switch {
		case len(x.Strs) > 0:
			if cterr == nil && ct.Kind != vector.String {
				return plan.Expr{}, errf(x.P, "IN list of strings against %s", ct)
			}
			in = plan.InStr(ce, x.Strs...)
		case cterr == nil && ct.Kind == vector.String:
			return plan.Expr{}, errf(x.P, "IN list of integers against %s", ct)
		case cterr == nil && ct.Kind == vector.Float64:
			// Float subject (e.g. a decimal column): expand to an equality
			// chain, matching the promotion `= literal` gets.
			for i, v := range x.Ints {
				eq := plan.EQ(ce, plan.Float(float64(v)))
				if i == 0 {
					in = eq
				} else {
					in = plan.Or(in, eq)
				}
			}
		default:
			in = plan.InInt(ce, x.Ints...)
		}
		if x.Not {
			return plan.Not(in), nil
		}
		return in, nil
	case *BetweenExpr:
		ce, err := lowerExpr(s, x.E, false)
		if err != nil {
			return plan.Expr{}, err
		}
		lo, err := adaptTo(s, ce, x.Lo)
		if err != nil {
			return plan.Expr{}, err
		}
		hi, err := adaptTo(s, ce, x.Hi)
		if err != nil {
			return plan.Expr{}, err
		}
		return plan.Between(ce, lo, hi), nil
	case *CaseExpr:
		we, err := lowerExpr(s, x.When, false)
		if err != nil {
			return plan.Expr{}, err
		}
		te, ee, tt, et, err := lowerPair(s, x.Then, x.Else)
		if err != nil {
			return plan.Expr{}, err
		}
		if (tt.Kind == vector.String) != (et.Kind == vector.String) {
			return plan.Expr{}, errf(x.P, "CASE branches mix %s and %s", tt, et)
		}
		return plan.Case(we, te, ee), nil
	case *ParamExpr:
		return plan.Expr{}, errf(x.P, "unbound parameter ?%d (bind values with a prepared statement)", x.Idx)
	case *SubqueryExpr:
		return plan.Expr{}, errf(x.P, "scalar subquery is only supported in top-level AND conjuncts")
	case *ExistsExpr:
		return plan.Expr{}, errf(x.P, "EXISTS is only supported as a top-level WHERE conjunct")
	case *InSubquery:
		return plan.Expr{}, errf(x.P, "IN (SELECT ...) is only supported as a top-level WHERE conjunct")
	}
	return plan.Expr{}, errf(e.pos(), "unsupported expression %s", e)
}

// lowerPair lowers both operands of a binary construct, promoting an integer
// literal to float when the other side is float-typed (so `l_quantity < 24`
// over a decimal column compares as floats).
// The inferred operand types are returned for the caller's checks.
func lowerPair(s vector.Schema, lAst, rAst Expr) (plan.Expr, plan.Expr, vector.Type, vector.Type, error) {
	var lt, rt vector.Type
	le, err := lowerExpr(s, lAst, false)
	if err != nil {
		return plan.Expr{}, plan.Expr{}, lt, rt, err
	}
	re, err := lowerExpr(s, rAst, false)
	if err != nil {
		return plan.Expr{}, plan.Expr{}, lt, rt, err
	}
	lt, lterr := le.Type(s)
	rt, rterr := re.Type(s)
	if lterr == nil && rterr == nil {
		if lt.Kind == vector.Float64 && rt.Kind != vector.Float64 {
			if il, ok := rAst.(*IntLit); ok {
				re = plan.Float(float64(il.V))
				rt = vector.TFloat64
			}
		}
		if rt.Kind == vector.Float64 && lt.Kind != vector.Float64 {
			if il, ok := lAst.(*IntLit); ok {
				le = plan.Float(float64(il.V))
				lt = vector.TFloat64
			}
		}
	}
	return le, re, lt, rt, nil
}

// adaptTo lowers a literal bound, promoting integers to float when the
// subject expression is float-typed.
func adaptTo(s vector.Schema, subject plan.Expr, ast Expr) (plan.Expr, error) {
	e, err := lowerExpr(s, ast, false)
	if err != nil {
		return plan.Expr{}, err
	}
	st, serr := subject.Type(s)
	if serr == nil && st.Kind == vector.Float64 {
		if il, ok := ast.(*IntLit); ok {
			return plan.Float(float64(il.V)), nil
		}
	}
	return e, nil
}
