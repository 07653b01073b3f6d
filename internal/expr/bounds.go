package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"vectorh/internal/vector"
)

// This file is everything that inspects a bound predicate instead of
// evaluating it: its top-level conjuncts, the columns it reads, and the
// per-column value bounds it implies. A storage scan prunes IO with the
// bounds against block MinMax summaries and decides rows with the predicate
// itself (Filter), so a bound that is too wide costs a block read
// and can never cost a row. A bound that is too narrow would, which is why
// this is the only place bounds are derived (bounds_test.go holds it to
// "satisfies ⇒ inside" on generated conjuncts and values). The planner
// estimates with the same intervals (Selectivity), so an estimate and the
// scan that runs cannot disagree about what a predicate means.

// Conjuncts splits a predicate at its top-level ANDs, left to right.
func Conjuncts(e Expr) []Expr { return appendConjuncts(nil, e) }

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if n, ok := e.(*node); ok && n.op == opAnd {
		return appendConjuncts(appendConjuncts(dst, n.args[0]), n.args[1])
	}
	return append(dst, e)
}

// Columns lists the input columns e reads, ascending and without repeats.
func Columns(e Expr) []int {
	cols := appendColumns(nil, e)
	slices.Sort(cols)
	return slices.Compact(cols)
}

func appendColumns(dst []int, e Expr) []int {
	n, ok := e.(*node)
	if !ok {
		return dst
	}
	if n.op == opCol {
		dst = append(dst, int(n.x.i))
	}
	for _, a := range n.args {
		dst = appendColumns(dst, a)
	}
	return dst
}

// Bound is a closed interval that every row satisfying a predicate has its
// value of one input column inside. Kind says which interval is set: Int64
// (int32, int64, date and decimal storage, in storage units), Float64 or
// String.
type Bound struct {
	Col  int
	Kind vector.Kind

	IntLo, IntHi     int64   // math.MinInt64 / math.MaxInt64 = open; IntLo > IntHi = no value
	FloatLo, FloatHi float64 // ±Inf = open
	StrLo, StrHi     string  // StrLo "" = open; StrHi counts only with HasStrHi
	HasStrHi         bool

	// Exact reports the converse for an integer interval: the predicate the
	// bound was derived from holds for every row whose value is inside, so a
	// block whose values all are needs no row test. Float-compared and string
	// intervals never are (rounding slack, strict ends widened to closed).
	Exact bool
}

// String prints the interval; the caller names the column.
func (b Bound) String() string {
	lo, hi := "min", "max"
	switch b.Kind {
	case vector.Int64:
		if b.IntLo != math.MinInt64 {
			lo = fmt.Sprint(b.IntLo)
		}
		if b.IntHi != math.MaxInt64 {
			hi = fmt.Sprint(b.IntHi)
		}
	case vector.Float64:
		if !math.IsInf(b.FloatLo, -1) {
			lo = fmt.Sprint(b.FloatLo)
		}
		if !math.IsInf(b.FloatHi, 1) {
			hi = fmt.Sprint(b.FloatHi)
		}
	default:
		if b.StrLo != "" {
			lo = fmt.Sprintf("%q", b.StrLo)
		}
		if b.HasStrHi {
			hi = fmt.Sprintf("%q", b.StrHi)
		}
	}
	return "[" + lo + "," + hi + "]"
}

// Contains reports whether v, a value of the bound's column, lies inside
// the interval. A value of no summarized kind is inside: a bound only ever
// rules values out.
func (b Bound) Contains(v any) bool {
	switch x := v.(type) {
	case int32:
		return b.IntLo <= int64(x) && int64(x) <= b.IntHi
	case int64:
		return b.IntLo <= x && x <= b.IntHi
	case float64:
		return b.FloatLo <= x && x <= b.FloatHi
	case string:
		return b.StrLo <= x && (!b.HasStrHi || x <= b.StrHi)
	}
	return true
}

// Bounds derives the bounds e implies, at most one per column, in order of
// first mention. Conjuncts of the shapes column ⋚ literal (either way
// round), scaled(column, f) ⋚ literal, column IN (list) and column LIKE
// 'prefix%…' contribute; AND intersects; everything else — OR, NOT, <>,
// column-to-column, arithmetic — implies nothing here and is left to the
// predicate.
func Bounds(e Expr) []Bound {
	n, ok := e.(*node)
	if !ok {
		return nil
	}
	if n.op != opAnd {
		if b, ok := conjunctBound(n); ok {
			return []Bound{b}
		}
		return nil
	}
	out, r := Bounds(n.args[0]), Bounds(n.args[1])
	// l AND r is a function of one column's interval only when both sides are.
	exact := len(out) == 1 && len(r) == 1 && out[0].Col == r[0].Col && out[0].Exact && r[0].Exact
merge:
	for _, b := range r {
		for i := range out {
			if out[i].Col == b.Col && out[i].Kind == b.Kind {
				out[i].intersect(b)
				continue merge
			}
		}
		out = append(out, b)
	}
	for i := range out {
		out[i].Exact = exact
	}
	return out
}

// Selectivity estimates the share of rows that satisfy pred, the one
// selectivity model of the planner: the join orderer and the rewriter's
// cardinality estimates both call it. Per column, the integer bounds of its
// conjuncts (Bounds' intervals, so BETWEEN and its >= AND <= pair read the
// same and a scaled decimal compares in storage units) are intersected and
// measured against the column's value range under a uniform distribution; an
// empty intersection gives 0. Every conjunct that bounds no ranged column is
// charged the classic 1/3. colRange reports a column's value range with
// lo <= hi (ok false when it has none); a nil colRange has none at all.
func Selectivity(pred Expr, colRange func(col int) (lo, hi int64, ok bool)) float64 {
	type ranged struct {
		Bound        // the column's conjuncts' bounds, intersected
		lo, hi int64 // the column's value range
	}
	var cols []ranged
	sel := 1.0
conjuncts:
	for _, c := range Conjuncts(pred) {
		b, ok := Bound{}, false
		if n, _ := c.(*node); n != nil && colRange != nil {
			b, ok = conjunctBound(n)
			ok = ok && b.Kind == vector.Int64
		}
		for i := range cols {
			if ok && cols[i].Col == b.Col {
				cols[i].intersect(b)
				continue conjuncts
			}
		}
		var lo, hi int64
		if ok {
			lo, hi, ok = colRange(b.Col)
		}
		if !ok {
			sel /= 3
			continue
		}
		cols = append(cols, ranged{b, lo, hi})
	}
	for _, r := range cols {
		a, z := max(r.IntLo, r.lo), min(r.IntHi, r.hi)
		if a > z {
			return 0
		}
		sel *= (float64(z) - float64(a) + 1) / (float64(r.hi) - float64(r.lo) + 1)
	}
	return sel
}

func (b *Bound) intersect(o Bound) {
	b.IntLo, b.IntHi = max(b.IntLo, o.IntLo), min(b.IntHi, o.IntHi)
	b.FloatLo, b.FloatHi = max(b.FloatLo, o.FloatLo), min(b.FloatHi, o.FloatHi)
	b.StrLo = max(b.StrLo, o.StrLo)
	if o.HasStrHi && (!b.HasStrHi || o.StrHi < b.StrHi) {
		b.StrHi, b.HasStrHi = o.StrHi, true
	}
}

// open returns the unconstrained bound of a column.
func open(col *node) Bound {
	b := Bound{Col: int(col.x.i), Kind: col.kind, IntLo: math.MinInt64, IntHi: math.MaxInt64,
		FloatLo: math.Inf(-1), FloatHi: math.Inf(1)}
	if b.Kind == vector.Int32 {
		b.Kind = vector.Int64
	}
	return b
}

func isInt(k vector.Kind) bool { return k == vector.Int32 || k == vector.Int64 }

// conjunctBound derives the bound of one non-AND predicate.
func conjunctBound(n *node) (Bound, bool) {
	switch {
	case n.op.isCmp() && n.op != opNE:
		l, r, op := n.args[0], n.args[1], n.op
		if isLiteral(l) {
			l, r, op = r, l, mirror[op]
		}
		if col, f := storageCol(l); col != nil && isLiteral(r) {
			return cmpBound(op, col, f, r.(*node))
		}
	case n.op == opInInt && len(n.ints) > 0:
		if col, f := storageCol(n.args[0]); col != nil && f == 0 && isInt(col.kind) {
			b := open(col)
			b.IntLo, b.IntHi = slices.Min(n.ints), slices.Max(n.ints)
			return b, true
		}
	case n.op == opInStr && len(n.strs) > 0:
		if col, f := storageCol(n.args[0]); col != nil && f == 0 && col.kind == vector.String {
			b := open(col)
			b.StrLo, b.StrHi, b.HasStrHi = slices.Min(n.strs), slices.Max(n.strs), true
			return b, true
		}
	case n.op == opLike && !n.x.b:
		col, f := storageCol(n.args[0])
		prefix, _, wild := strings.Cut(n.x.s, "%")
		if col == nil || f != 0 || col.kind != vector.String || (wild && prefix == "") {
			break
		}
		b := open(col)
		b.StrLo, b.StrHi, b.HasStrHi = prefix, prefix, true
		if wild {
			b.StrHi, b.HasStrHi = prefixSuccessor(prefix)
		}
		return b, true
	}
	return Bound{}, false
}

// mirror is the comparison with its operands swapped.
var mirror = [...]opcode{opLT: opGT, opLE: opGE, opGT: opLT, opGE: opLE, opEQ: opEQ, opNE: opNE}

// storageCol recognises a bare column (f = 0) or scaled(column, f) over
// integer storage with a usable factor.
func storageCol(e Expr) (col *node, f float64) {
	n, _ := e.(*node)
	if n != nil && n.op == opScaled {
		f = n.x.float()
		if n, _ = n.args[0].(*node); n == nil || !isInt(n.kind) || !(f > 0) || math.IsInf(f, 1) {
			return nil, 0
		}
	}
	if n == nil || n.op != opCol {
		return nil, 0
	}
	return n, f
}

// cmpBound is the bound of column ⋚ literal, in the domain the comparison
// kernel works in (Program.cmp): strings, int64 when both sides are integers,
// float64 otherwise.
func cmpBound(op opcode, col *node, f float64, lit *node) (Bound, bool) {
	b := open(col)
	lower, upper := op == opGT || op == opGE || op == opEQ, op == opLT || op == opLE || op == opEQ
	switch {
	case col.kind == vector.String && lit.kind == vector.String:
		if lower {
			b.StrLo = lit.x.s
		}
		if upper {
			b.StrHi, b.HasStrHi = lit.x.s, true
		}
	case !isNumeric(col.kind) || !isNumeric(lit.kind):
		return b, false
	case f == 0 && isInt(col.kind) && isInt(lit.kind):
		c := lit.x.i
		b.Exact = true
		if lower {
			b.IntLo = c
		}
		if upper {
			b.IntHi = c
		}
		switch {
		case op == opGT && c == math.MaxInt64, op == opLT && c == math.MinInt64:
			b.IntLo, b.IntHi = math.MaxInt64, math.MinInt64
		case op == opGT:
			b.IntLo = c + 1
		case op == opLT:
			b.IntHi = c - 1
		}
	case col.kind == vector.Float64:
		c := lit.x.float()
		if math.IsNaN(c) {
			return b, false
		}
		if lower {
			b.FloatLo = c
		}
		if upper {
			b.FloatHi = c
		}
	default:
		// float64(v)*f ⋚ c over integer storage (f = 1 for a bare column
		// compared with a float literal): v lies within rounding distance of
		// c/f. The kernel rounds twice (conversion, product) and the division
		// here once, each by at most 2⁻⁵³ relative — a product small enough to
		// round absolutely is a multiple of 2⁻¹⁰⁷⁴ and exact — so a relative
		// 2⁻⁵⁰ errs wide. The result saturates at the int64 limits, where
		// converting the float would wrap; an infinite c/f (an infinite
		// literal, which overflowing products do compare equal to) bounds
		// nothing.
		if f == 0 {
			f = 1
		}
		q := lit.x.float() / f
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return b, false
		}
		slack := math.Abs(q) * 0x1p-50
		if lower {
			b.IntLo = saturate(math.Floor(q - slack))
		}
		if upper {
			b.IntHi = saturate(math.Ceil(q + slack))
		}
	}
	return b, true
}

// saturate converts an integral float to int64, clamping at the limits.
func saturate(v float64) int64 {
	switch {
	case v >= 0x1p63:
		return math.MaxInt64
	case v <= -0x1p63:
		return math.MinInt64
	}
	return int64(v)
}

// prefixSuccessor returns the smallest string greater than every string with
// the given prefix — increment the last byte below 0xff and truncate — or
// false when the prefix is all 0xff and has none.
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
