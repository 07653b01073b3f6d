package expr

// The tree interpreter this package used before expressions were compiled
// into programs, kept verbatim (identifiers prefixed with "ref") as the
// differential oracle of program_test.go: every node evaluates its children
// into fresh vectors and loops over them, constants are broadcast with
// vector.Const, int columns are copied to float before arithmetic. Slow, but
// each node is a few obviously-correct lines.

import (
	"fmt"
	"math"
	"strings"

	"vectorh/internal/vector"
)

// refExpr is a vectorized expression.
type refExpr interface {
	// Eval returns a dense vector of length b.Len().
	Eval(b *vector.Batch) (*vector.Vec, error)
	// Kind is the result kind.
	Kind() vector.Kind
	String() string
}

// --- column references and constants ---

type refColExpr struct {
	idx  int
	kind vector.Kind
}

// refCol references input column idx with the given kind.
func refCol(idx int, kind vector.Kind) refExpr { return &refColExpr{idx, kind} }

func (c *refColExpr) Kind() vector.Kind { return c.kind }
func (c *refColExpr) String() string    { return fmt.Sprintf("$%d", c.idx) }

func (c *refColExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	if c.idx >= len(b.Vecs) {
		return nil, fmt.Errorf("expr: column $%d out of range (%d cols)", c.idx, len(b.Vecs))
	}
	v := b.Vecs[c.idx]
	if v.Kind() != c.kind {
		return nil, fmt.Errorf("expr: column $%d is %v, expected %v", c.idx, v.Kind(), c.kind)
	}
	if b.Sel == nil {
		return v, nil
	}
	return v.Gather(b.Sel, len(b.Sel)), nil
}

type refConstExpr struct {
	kind vector.Kind
	val  any
}

// refConstInt64 is an int64 literal.
func refConstInt64(v int64) refExpr { return &refConstExpr{vector.Int64, v} }

// refConstInt32 is an int32 literal (also used for date literals).
func refConstInt32(v int32) refExpr { return &refConstExpr{vector.Int32, v} }

// refConstFloat is a float64 literal.
func refConstFloat(v float64) refExpr { return &refConstExpr{vector.Float64, v} }

// refConstStr is a string literal.
func refConstStr(v string) refExpr { return &refConstExpr{vector.String, v} }

// refConstBool is a boolean literal.
func refConstBool(v bool) refExpr { return &refConstExpr{vector.Bool, v} }

func (c *refConstExpr) Kind() vector.Kind { return c.kind }
func (c *refConstExpr) String() string    { return fmt.Sprintf("%v", c.val) }

func (c *refConstExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	return vector.Const(c.kind, c.val, b.Len()), nil
}

// --- numeric promotion helpers ---

// refAsInt64 produces an []int64 view of an int32/int64 vector.
func refAsInt64(v *vector.Vec) ([]int64, bool) {
	switch v.Kind() {
	case vector.Int64:
		return v.Int64s(), true
	case vector.Int32:
		src := v.Int32s()
		out := make([]int64, len(src))
		for i, x := range src {
			out[i] = int64(x)
		}
		return out, true
	default:
		return nil, false
	}
}

// refAsFloat produces an []float64 view of any numeric vector.
func refAsFloat(v *vector.Vec) ([]float64, bool) {
	switch v.Kind() {
	case vector.Float64:
		return v.Float64s(), true
	case vector.Int64:
		src := v.Int64s()
		out := make([]float64, len(src))
		for i, x := range src {
			out[i] = float64(x)
		}
		return out, true
	case vector.Int32:
		src := v.Int32s()
		out := make([]float64, len(src))
		for i, x := range src {
			out[i] = float64(x)
		}
		return out, true
	default:
		return nil, false
	}
}

func refIsNumeric(k vector.Kind) bool {
	return k == vector.Int32 || k == vector.Int64 || k == vector.Float64
}

// --- arithmetic ---

type refArithOp uint8

const (
	refOpAdd refArithOp = iota
	refOpSub
	refOpMul
	refOpDiv
)

type refArithExpr struct {
	op   refArithOp
	l, r refExpr
	kind vector.Kind
}

func refArith(op refArithOp, l, r refExpr) refExpr {
	kind := vector.Int64
	if l.Kind() == vector.Float64 || r.Kind() == vector.Float64 || op == refOpDiv {
		kind = vector.Float64
	}
	return &refArithExpr{op: op, l: l, r: r, kind: kind}
}

// refAdd returns l + r (int64 unless either side is float, then float64).
func refAdd(l, r refExpr) refExpr { return refArith(refOpAdd, l, r) }

// refSub returns l - r.
func refSub(l, r refExpr) refExpr { return refArith(refOpSub, l, r) }

// refMul returns l * r.
func refMul(l, r refExpr) refExpr { return refArith(refOpMul, l, r) }

// refDiv returns l / r as float64.
func refDiv(l, r refExpr) refExpr { return refArith(refOpDiv, l, r) }

func (e *refArithExpr) Kind() vector.Kind { return e.kind }

func (e *refArithExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, [...]string{"+", "-", "*", "/"}[e.op], e.r)
}

func (e *refArithExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	lv, err := e.l.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.Eval(b)
	if err != nil {
		return nil, err
	}
	if !refIsNumeric(lv.Kind()) || !refIsNumeric(rv.Kind()) {
		return nil, fmt.Errorf("expr: arithmetic on %v/%v", lv.Kind(), rv.Kind())
	}
	if e.kind == vector.Float64 {
		l, _ := refAsFloat(lv)
		r, _ := refAsFloat(rv)
		out := make([]float64, len(l))
		switch e.op {
		case refOpAdd:
			for i := range l {
				out[i] = l[i] + r[i]
			}
		case refOpSub:
			for i := range l {
				out[i] = l[i] - r[i]
			}
		case refOpMul:
			for i := range l {
				out[i] = l[i] * r[i]
			}
		case refOpDiv:
			for i := range l {
				out[i] = l[i] / r[i]
			}
		}
		return vector.FromFloat64(out), nil
	}
	l, _ := refAsInt64(lv)
	r, _ := refAsInt64(rv)
	out := make([]int64, len(l))
	switch e.op {
	case refOpAdd:
		for i := range l {
			out[i] = l[i] + r[i]
		}
	case refOpSub:
		for i := range l {
			out[i] = l[i] - r[i]
		}
	case refOpMul:
		for i := range l {
			out[i] = l[i] * r[i]
		}
	}
	return vector.FromInt64(out), nil
}

// refScaled converts a scaled-int64 decimal column to float64 (factor is the
// inverse scale, e.g. 0.01 for two decimal digits).
func refScaled(e refExpr, factor float64) refExpr { return &refScaledExpr{e, factor} }

type refScaledExpr struct {
	e      refExpr
	factor float64
}

func (s *refScaledExpr) Kind() vector.Kind { return vector.Float64 }
func (s *refScaledExpr) String() string    { return fmt.Sprintf("scaled(%s,%g)", s.e, s.factor) }

func (s *refScaledExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := s.e.Eval(b)
	if err != nil {
		return nil, err
	}
	f, ok := refAsFloat(v)
	if !ok {
		return nil, fmt.Errorf("expr: scaled() on %v", v.Kind())
	}
	out := make([]float64, len(f))
	for i, x := range f {
		out[i] = x * s.factor
	}
	return vector.FromFloat64(out), nil
}

// --- physical casts (the trickle-update write path converts computed
// values into the target column's storage representation) ---

// refCastInt32 narrows an integer expression to int32, failing at evaluation
// time on values outside the int32 range (silent truncation would corrupt
// stored data).
func refCastInt32(e refExpr) refExpr { return &refCastInt32Expr{e} }

type refCastInt32Expr struct{ e refExpr }

func (c *refCastInt32Expr) Kind() vector.Kind { return vector.Int32 }
func (c *refCastInt32Expr) String() string    { return fmt.Sprintf("int32(%s)", c.e) }

func (c *refCastInt32Expr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := c.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() == vector.Int32 {
		return v, nil
	}
	src, ok := refAsInt64(v)
	if !ok {
		return nil, fmt.Errorf("expr: int32() on %v", v.Kind())
	}
	out := make([]int32, len(src))
	for i, x := range src {
		if x < -1<<31 || x > 1<<31-1 {
			return nil, fmt.Errorf("expr: value %d overflows int32", x)
		}
		out[i] = int32(x)
	}
	return vector.FromInt32(out), nil
}

// refCastInt64 widens an int32 expression to int64 (a no-op on int64 input).
func refCastInt64(e refExpr) refExpr { return &refCastInt64Expr{e} }

type refCastInt64Expr struct{ e refExpr }

func (c *refCastInt64Expr) Kind() vector.Kind { return vector.Int64 }
func (c *refCastInt64Expr) String() string    { return fmt.Sprintf("int64(%s)", c.e) }

func (c *refCastInt64Expr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := c.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() == vector.Int64 {
		return v, nil
	}
	src, ok := refAsInt64(v)
	if !ok {
		return nil, fmt.Errorf("expr: int64() on %v", v.Kind())
	}
	return vector.FromInt64(src), nil
}

// refToScaledInt64 converts a numeric expression to a scaled int64 (the
// inverse of refScaled): round(x * scale). It is how computed SQL decimal
// values return to their storage representation.
func refToScaledInt64(e refExpr, scale float64) refExpr { return &refToScaledExpr{e, scale} }

type refToScaledExpr struct {
	e     refExpr
	scale float64
}

func (s *refToScaledExpr) Kind() vector.Kind { return vector.Int64 }
func (s *refToScaledExpr) String() string    { return fmt.Sprintf("toscaled(%s,%g)", s.e, s.scale) }

func (s *refToScaledExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := s.e.Eval(b)
	if err != nil {
		return nil, err
	}
	f, ok := refAsFloat(v)
	if !ok {
		return nil, fmt.Errorf("expr: toscaled() on %v", v.Kind())
	}
	out := make([]int64, len(f))
	for i, x := range f {
		out[i] = int64(math.Round(x * s.scale))
	}
	return vector.FromInt64(out), nil
}

// --- comparisons ---

type refCmpOp uint8

const (
	refOpLT refCmpOp = iota
	refOpLE
	refOpGT
	refOpGE
	refOpEQ
	refOpNE
)

type refCmpExpr struct {
	op   refCmpOp
	l, r refExpr
}

// refLT returns l < r.
func refLT(l, r refExpr) refExpr { return &refCmpExpr{refOpLT, l, r} }

// refLE returns l <= r.
func refLE(l, r refExpr) refExpr { return &refCmpExpr{refOpLE, l, r} }

// refGT returns l > r.
func refGT(l, r refExpr) refExpr { return &refCmpExpr{refOpGT, l, r} }

// refGE returns l >= r.
func refGE(l, r refExpr) refExpr { return &refCmpExpr{refOpGE, l, r} }

// refEQ returns l == r.
func refEQ(l, r refExpr) refExpr { return &refCmpExpr{refOpEQ, l, r} }

// refNE returns l != r.
func refNE(l, r refExpr) refExpr { return &refCmpExpr{refOpNE, l, r} }

func (e *refCmpExpr) Kind() vector.Kind { return vector.Bool }

func (e *refCmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, [...]string{"<", "<=", ">", ">=", "=", "<>"}[e.op], e.r)
}

// refCmpStrOne applies one comparison to a scalar string pair (the dictionary
// fast path evaluates it once per dictionary entry).
func refCmpStrOne(op refCmpOp, a, b string) bool {
	switch op {
	case refOpLT:
		return a < b
	case refOpLE:
		return a <= b
	case refOpGT:
		return a > b
	case refOpGE:
		return a >= b
	case refOpEQ:
		return a == b
	case refOpNE:
		return a != b
	}
	return false
}

// refDictMap evaluates a scalar string predicate once per dictionary entry of a
// code vector, then gathers the per-entry verdicts through the codes.
func refDictMap(v *vector.Vec, pred func(string) bool) []bool {
	vals := v.Dict().Values
	dm := make([]bool, len(vals))
	for i, s := range vals {
		dm[i] = pred(s)
	}
	codes := v.DictCodes()
	out := make([]bool, len(codes))
	for i, c := range codes {
		out[i] = dm[c]
	}
	return out
}

func refCmpSlice[T int64 | float64 | string](op refCmpOp, l, r []T) []bool {
	out := make([]bool, len(l))
	switch op {
	case refOpLT:
		for i := range l {
			out[i] = l[i] < r[i]
		}
	case refOpLE:
		for i := range l {
			out[i] = l[i] <= r[i]
		}
	case refOpGT:
		for i := range l {
			out[i] = l[i] > r[i]
		}
	case refOpGE:
		for i := range l {
			out[i] = l[i] >= r[i]
		}
	case refOpEQ:
		for i := range l {
			out[i] = l[i] == r[i]
		}
	case refOpNE:
		for i := range l {
			out[i] = l[i] != r[i]
		}
	}
	return out
}

func (e *refCmpExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	lv, err := e.l.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.Eval(b)
	if err != nil {
		return nil, err
	}
	switch {
	case lv.Kind() == vector.String && rv.Kind() == vector.String:
		// Dictionary fast path: comparing a code vector against a literal
		// evaluates the comparison once per dictionary entry, then maps it
		// over the codes — no string materialization, no per-row compares.
		if lv.IsDict() {
			if c, ok := e.r.(*refConstExpr); ok {
				return vector.FromBool(refDictMap(lv, func(s string) bool {
					return refCmpStrOne(e.op, s, c.val.(string))
				})), nil
			}
		}
		if rv.IsDict() {
			if c, ok := e.l.(*refConstExpr); ok {
				return vector.FromBool(refDictMap(rv, func(s string) bool {
					return refCmpStrOne(e.op, c.val.(string), s)
				})), nil
			}
		}
		return vector.FromBool(refCmpSlice(e.op, lv.Strings(), rv.Strings())), nil
	case lv.Kind() == vector.Float64 || rv.Kind() == vector.Float64:
		l, ok1 := refAsFloat(lv)
		r, ok2 := refAsFloat(rv)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("expr: compare %v with %v", lv.Kind(), rv.Kind())
		}
		return vector.FromBool(refCmpSlice(e.op, l, r)), nil
	default:
		l, ok1 := refAsInt64(lv)
		r, ok2 := refAsInt64(rv)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("expr: compare %v with %v", lv.Kind(), rv.Kind())
		}
		return vector.FromBool(refCmpSlice(e.op, l, r)), nil
	}
}

// refBetween returns lo <= e AND e <= hi.
func refBetween(e, lo, hi refExpr) refExpr { return refAnd(refGE(e, lo), refLE(e, hi)) }

// --- boolean connectives ---

type refBoolOp uint8

const (
	refOpAnd refBoolOp = iota
	refOpOr
	refOpNot
)

type refBoolExpr struct {
	op   refBoolOp
	l, r refExpr
}

// refAnd returns l AND r.
func refAnd(l, r refExpr) refExpr { return &refBoolExpr{refOpAnd, l, r} }

// refOr returns l OR r.
func refOr(l, r refExpr) refExpr { return &refBoolExpr{refOpOr, l, r} }

// refNot returns NOT l.
func refNot(l refExpr) refExpr { return &refBoolExpr{refOpNot, l, nil} }

func (e *refBoolExpr) Kind() vector.Kind { return vector.Bool }

func (e *refBoolExpr) String() string {
	if e.op == refOpNot {
		return fmt.Sprintf("not(%s)", e.l)
	}
	return fmt.Sprintf("(%s %s %s)", e.l, [...]string{"and", "or"}[e.op], e.r)
}

func (e *refBoolExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	lv, err := e.l.Eval(b)
	if err != nil {
		return nil, err
	}
	if lv.Kind() != vector.Bool {
		return nil, fmt.Errorf("expr: boolean op on %v", lv.Kind())
	}
	l := lv.Bools()
	if e.op == refOpNot {
		out := make([]bool, len(l))
		for i := range l {
			out[i] = !l[i]
		}
		return vector.FromBool(out), nil
	}
	rv, err := e.r.Eval(b)
	if err != nil {
		return nil, err
	}
	if rv.Kind() != vector.Bool {
		return nil, fmt.Errorf("expr: boolean op on %v", rv.Kind())
	}
	r := rv.Bools()
	out := make([]bool, len(l))
	if e.op == refOpAnd {
		for i := range l {
			out[i] = l[i] && r[i]
		}
	} else {
		for i := range l {
			out[i] = l[i] || r[i]
		}
	}
	return vector.FromBool(out), nil
}

// --- string predicates ---

type refLikeExpr struct {
	e       refExpr
	pattern string
	negate  bool
}

// refLike implements SQL LIKE with % wildcards (the _ wildcard is not needed by
// TPC-H and unsupported).
func refLike(e refExpr, pattern string) refExpr { return &refLikeExpr{e, pattern, false} }

// refNotLike is the negation of refLike.
func refNotLike(e refExpr, pattern string) refExpr { return &refLikeExpr{e, pattern, true} }

func (e *refLikeExpr) Kind() vector.Kind { return vector.Bool }
func (e *refLikeExpr) String() string    { return fmt.Sprintf("like(%s,%q)", e.e, e.pattern) }

func (e *refLikeExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.String {
		return nil, fmt.Errorf("expr: LIKE on %v", v.Kind())
	}
	parts := strings.Split(e.pattern, "%")
	anchoredL := !strings.HasPrefix(e.pattern, "%")
	anchoredR := !strings.HasSuffix(e.pattern, "%")
	var pieces []string
	for _, p := range parts {
		if p != "" {
			pieces = append(pieces, p)
		}
	}
	if v.IsDict() {
		// LIKE over a code vector: match each dictionary entry once, then
		// map the verdicts over the codes. For low-cardinality columns this
		// turns ~1024 substring searches per vector into a handful.
		return vector.FromBool(refDictMap(v, func(s string) bool {
			return refLikeMatch(s, pieces, anchoredL, anchoredR) != e.negate
		})), nil
	}
	src := v.Strings()
	out := make([]bool, len(src))
	for i, s := range src {
		out[i] = refLikeMatch(s, pieces, anchoredL, anchoredR) != e.negate
	}
	return vector.FromBool(out), nil
}

func refLikeMatch(s string, pieces []string, anchoredL, anchoredR bool) bool {
	if len(pieces) == 0 {
		// '%', '%%', …: everything; '': the empty string only.
		return !(anchoredL && anchoredR) || s == ""
	}
	if anchoredL {
		if !strings.HasPrefix(s, pieces[0]) {
			return false
		}
		s = s[len(pieces[0]):]
		pieces = pieces[1:]
		if len(pieces) == 0 && anchoredR {
			// No wildcard between the anchors: exact match required.
			return s == ""
		}
	}
	var last string
	if anchoredR && len(pieces) > 0 {
		last = pieces[len(pieces)-1]
		pieces = pieces[:len(pieces)-1]
	}
	for _, p := range pieces {
		idx := strings.Index(s, p)
		if idx < 0 {
			return false
		}
		s = s[idx+len(p):]
	}
	if last != "" {
		return strings.HasSuffix(s, last)
	}
	return true
}

// refInStr tests membership in a string list.
func refInStr(e refExpr, vals ...string) refExpr { return &refInStrExpr{e, vals} }

type refInStrExpr struct {
	e    refExpr
	vals []string
}

func (e *refInStrExpr) Kind() vector.Kind { return vector.Bool }
func (e *refInStrExpr) String() string    { return fmt.Sprintf("in(%s,%v)", e.e, e.vals) }

func (e *refInStrExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.String {
		return nil, fmt.Errorf("expr: IN strings on %v", v.Kind())
	}
	set := make(map[string]bool, len(e.vals))
	for _, s := range e.vals {
		set[s] = true
	}
	if v.IsDict() {
		return vector.FromBool(refDictMap(v, func(s string) bool { return set[s] })), nil
	}
	src := v.Strings()
	out := make([]bool, len(src))
	for i, s := range src {
		out[i] = set[s]
	}
	return vector.FromBool(out), nil
}

// refInInt64 tests membership in an integer list.
func refInInt64(e refExpr, vals ...int64) refExpr { return &refInIntExpr{e, vals} }

type refInIntExpr struct {
	e    refExpr
	vals []int64
}

func (e *refInIntExpr) Kind() vector.Kind { return vector.Bool }
func (e *refInIntExpr) String() string    { return fmt.Sprintf("in(%s,%v)", e.e, e.vals) }

func (e *refInIntExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return nil, err
	}
	src, ok := refAsInt64(v)
	if !ok {
		return nil, fmt.Errorf("expr: IN ints on %v", v.Kind())
	}
	set := make(map[int64]bool, len(e.vals))
	for _, x := range e.vals {
		set[x] = true
	}
	out := make([]bool, len(src))
	for i, x := range src {
		out[i] = set[x]
	}
	return vector.FromBool(out), nil
}

// refSubstr returns the 1-based substring of fixed length (SQL SUBSTRING(e FROM
// start FOR length)).
func refSubstr(e refExpr, start, length int) refExpr { return &refSubstrExpr{e, start, length} }

type refSubstrExpr struct {
	e             refExpr
	start, length int
}

func (e *refSubstrExpr) Kind() vector.Kind { return vector.String }
func (e *refSubstrExpr) String() string {
	return fmt.Sprintf("substr(%s,%d,%d)", e.e, e.start, e.length)
}

func (e *refSubstrExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.String {
		return nil, fmt.Errorf("expr: SUBSTRING on %v", v.Kind())
	}
	src := v.Strings()
	out := make([]string, len(src))
	for i, s := range src {
		lo := e.start - 1
		if lo > len(s) {
			lo = len(s)
		}
		hi := lo + e.length
		if hi > len(s) {
			hi = len(s)
		}
		out[i] = s[lo:hi]
	}
	return vector.FromString(out), nil
}

// --- dates ---

// refYear extracts the civil year of a date column (int32 days since epoch).
func refYear(e refExpr) refExpr { return &refYearExpr{e} }

type refYearExpr struct{ e refExpr }

func (e *refYearExpr) Kind() vector.Kind { return vector.Int32 }
func (e *refYearExpr) String() string    { return fmt.Sprintf("year(%s)", e.e) }

func (e *refYearExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Kind() != vector.Int32 {
		return nil, fmt.Errorf("expr: YEAR on %v", v.Kind())
	}
	src := v.Int32s()
	out := make([]int32, len(src))
	for i, d := range src {
		out[i] = vector.YearOf(d)
	}
	return vector.FromInt32(out), nil
}

// --- CASE WHEN ---

// refCase returns then where when is true, otherwise els. then and els must
// have the same kind.
func refCase(when, then, els refExpr) refExpr { return &refCaseExpr{when, then, els} }

type refCaseExpr struct {
	when, then, els refExpr
}

func (e *refCaseExpr) Kind() vector.Kind { return e.then.Kind() }
func (e *refCaseExpr) String() string {
	return fmt.Sprintf("case(%s,%s,%s)", e.when, e.then, e.els)
}

func (e *refCaseExpr) Eval(b *vector.Batch) (*vector.Vec, error) {
	wv, err := e.when.Eval(b)
	if err != nil {
		return nil, err
	}
	if wv.Kind() != vector.Bool {
		return nil, fmt.Errorf("expr: CASE condition is %v", wv.Kind())
	}
	tv, err := e.then.Eval(b)
	if err != nil {
		return nil, err
	}
	ev, err := e.els.Eval(b)
	if err != nil {
		return nil, err
	}
	if tv.Kind() != ev.Kind() {
		return nil, fmt.Errorf("expr: CASE branches %v vs %v", tv.Kind(), ev.Kind())
	}
	w := wv.Bools()
	out := vector.New(tv.Kind(), len(w))
	for i, cond := range w {
		if cond {
			out.AppendFrom(tv, i)
		} else {
			out.AppendFrom(ev, i)
		}
	}
	return out, nil
}
