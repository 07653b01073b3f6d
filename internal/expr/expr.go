// Package expr is the engine's vectorized expression layer (§2 of the
// paper), split into an immutable description and a per-operator executable.
//
// An Expr is the description: a bound tree (columns by position, typed
// literals) the rewriter builds once and hands to every stream of a plan. It
// holds no per-batch state and may be shared freely.
//
// A Program (compile.go) is the executable: Compile flattens all the
// expressions one operator instance evaluates into a straight-line sequence
// of typed primitives (kernels.go) over a register file the program owns and
// refills batch after batch — structurally equal sub-expressions share a
// register, literals are immediates, int→float conversion happens inside the
// consuming loop. Programs are never shared between streams.
//
// Decimal columns are stored as scaled int64 and explicitly converted with
// Scaled for arithmetic, mirroring how a real engine separates storage and
// computation types.
package expr

import (
	"fmt"
	"math"
	"sync/atomic"

	"vectorh/internal/vector"
)

// Expr is a bound, immutable expression over the columns of a batch.
type Expr interface {
	// Eval is the one-shot form: it returns a dense vector of length b.Len()
	// that belongs to the caller (or is one of b's own vectors, for a bare
	// column of a batch without selection). It runs a cached Program on the
	// same kernels operators use; operators compile their own Program instead.
	Eval(b *vector.Batch) (*vector.Vec, error)
	// Kind is the result kind.
	Kind() vector.Kind
	String() string
}

type opcode uint8

// The order groups the opcodes the compiler and the dispatcher treat alike:
// opAdd..opDiv are arithmetic, opLT..opNE comparisons, opAdd..opOr infix.
const (
	opCol opcode = iota
	opConst
	opAdd
	opSub
	opMul
	opDiv
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
	opAnd
	opOr
	opNot
	opScaled
	opCastInt32
	opCastInt64
	opToScaled
	opLike
	opInStr
	opInInt
	opSubstr
	opYear
	opCase
	opSelTrue // filter programs only: narrow the selection by a bool register
)

var opNames = [...]string{"col", "const", "add", "sub", "mul", "div", "lt", "le", "gt", "ge", "eq", "ne",
	"and", "or", "not", "scaled", "int32", "int64", "toscaled", "like", "in", "in", "substr", "year", "case", "true"}

var opSyms = [...]string{opAdd: "+", opSub: "-", opMul: "*", opDiv: "/",
	opLT: "<", opLE: "<=", opGT: ">", opGE: ">=", opEQ: "=", opNE: "<>", opAnd: "and", opOr: "or"}

func (op opcode) isArith() bool { return op >= opAdd && op <= opDiv }
func (op opcode) isCmp() bool   { return op >= opLT && op <= opNE }

// imm is an immediate operand. An integer literal carries its value in both
// numeric domains so a kernel reads it in the one it computes in; the float
// is kept as bits so that -0 and NaN compare exactly when sub-expressions
// are matched for sharing.
type imm struct {
	i  int64
	fb uint64
	s  string
	b  bool
}

func immInt(v int64) imm     { return imm{i: v, fb: math.Float64bits(float64(v))} }
func immFloat(v float64) imm { return imm{fb: math.Float64bits(v)} }

func (m imm) float() float64 { return math.Float64frombits(m.fb) }

func (m imm) format(k vector.Kind) string {
	switch k {
	case vector.Int32, vector.Int64:
		return fmt.Sprint(m.i)
	case vector.Float64:
		return fmt.Sprint(m.float())
	case vector.Bool:
		return fmt.Sprint(m.b)
	default:
		return m.s
	}
}

// node is the one concrete Expr: an operator, its result kind, its argument
// expressions and its literal parameters.
type node struct {
	op   opcode
	kind vector.Kind
	args []Expr
	// x holds the literal of opConst, the column index of opCol (x.i), the
	// factor of Scaled/ToScaledInt64, the pattern (x.s) and negation (x.b) of
	// LIKE and the start of Substr (x.i); y.i the length of Substr.
	x, y imm
	strs []string // InStr list
	ints []int64  // InInt64 list

	once atomic.Pointer[Program] // Eval's cached program
}

func (e *node) Kind() vector.Kind { return e.kind }

func (e *node) String() string {
	switch e.op {
	case opCol:
		return fmt.Sprintf("$%d", e.x.i)
	case opConst:
		return e.x.format(e.kind)
	case opScaled, opToScaled:
		return fmt.Sprintf("%s(%s,%g)", opNames[e.op], e.args[0], e.x.float())
	case opLike:
		if e.x.b {
			return fmt.Sprintf("notlike(%s,%q)", e.args[0], e.x.s)
		}
		return fmt.Sprintf("like(%s,%q)", e.args[0], e.x.s)
	case opInStr:
		return fmt.Sprintf("in(%s,%v)", e.args[0], e.strs)
	case opInInt:
		return fmt.Sprintf("in(%s,%v)", e.args[0], e.ints)
	case opSubstr:
		return fmt.Sprintf("substr(%s,%d,%d)", e.args[0], e.x.i, e.y.i)
	case opCase:
		return fmt.Sprintf("case(%s,%s,%s)", e.args[0], e.args[1], e.args[2])
	case opNot, opCastInt32, opCastInt64, opYear:
		return fmt.Sprintf("%s(%s)", opNames[e.op], e.args[0])
	default:
		return fmt.Sprintf("(%s %s %s)", e.args[0], opSyms[e.op], e.args[1])
	}
}

// Eval implements Expr: compile-or-reuse, run, hand the result over. Programs
// are single-user, so concurrent callers of one shared Expr each take the
// cached program or compile their own.
func (e *node) Eval(b *vector.Batch) (*vector.Vec, error) {
	p := e.once.Swap(nil)
	if p == nil {
		var err error
		if p, err = Compile(e); err != nil {
			return nil, err
		}
	}
	defer e.once.Store(p)
	if err := p.Run(b); err != nil {
		return nil, err
	}
	return p.Take(0), nil
}

// --- column references and constants ---

// Col references input column idx with the given kind.
func Col(idx int, kind vector.Kind) Expr { return &node{op: opCol, kind: kind, x: imm{i: int64(idx)}} }

// ConstInt64 is an int64 literal.
func ConstInt64(v int64) Expr { return &node{op: opConst, kind: vector.Int64, x: immInt(v)} }

// ConstInt32 is an int32 literal (also used for date literals).
func ConstInt32(v int32) Expr { return &node{op: opConst, kind: vector.Int32, x: immInt(int64(v))} }

// ConstFloat is a float64 literal.
func ConstFloat(v float64) Expr { return &node{op: opConst, kind: vector.Float64, x: immFloat(v)} }

// ConstStr is a string literal.
func ConstStr(v string) Expr { return &node{op: opConst, kind: vector.String, x: imm{s: v}} }

// ConstBool is a boolean literal.
func ConstBool(v bool) Expr { return &node{op: opConst, kind: vector.Bool, x: imm{b: v}} }

func isNumeric(k vector.Kind) bool {
	return k == vector.Int32 || k == vector.Int64 || k == vector.Float64
}

// --- arithmetic ---

func arith(op opcode, l, r Expr) Expr {
	kind := vector.Int64
	if l.Kind() == vector.Float64 || r.Kind() == vector.Float64 || op == opDiv {
		kind = vector.Float64
	}
	return &node{op: op, kind: kind, args: []Expr{l, r}}
}

// Add returns l + r (int64 unless either side is float, then float64).
func Add(l, r Expr) Expr { return arith(opAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return arith(opSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return arith(opMul, l, r) }

// Div returns l / r as float64.
func Div(l, r Expr) Expr { return arith(opDiv, l, r) }

// Scaled converts a scaled-int64 decimal column to float64 (factor is the
// inverse scale, e.g. 0.01 for two decimal digits).
func Scaled(e Expr, factor float64) Expr {
	return &node{op: opScaled, kind: vector.Float64, args: []Expr{e}, x: immFloat(factor)}
}

// --- physical casts (the trickle-update write path converts computed
// values into the target column's storage representation) ---

// CastInt32 narrows an integer expression to int32, failing at evaluation
// time on values outside the int32 range (silent truncation would corrupt
// stored data).
func CastInt32(e Expr) Expr { return &node{op: opCastInt32, kind: vector.Int32, args: []Expr{e}} }

// CastInt64 widens an int32 expression to int64 (a no-op on int64 input).
func CastInt64(e Expr) Expr { return &node{op: opCastInt64, kind: vector.Int64, args: []Expr{e}} }

// ToScaledInt64 converts a numeric expression to a scaled int64 (the
// inverse of Scaled): round(x * scale). It is how computed SQL decimal
// values return to their storage representation.
func ToScaledInt64(e Expr, scale float64) Expr {
	return &node{op: opToScaled, kind: vector.Int64, args: []Expr{e}, x: immFloat(scale)}
}

// --- comparisons and boolean connectives ---

func boolean(op opcode, args ...Expr) Expr { return &node{op: op, kind: vector.Bool, args: args} }

// LT returns l < r.
func LT(l, r Expr) Expr { return boolean(opLT, l, r) }

// LE returns l <= r.
func LE(l, r Expr) Expr { return boolean(opLE, l, r) }

// GT returns l > r.
func GT(l, r Expr) Expr { return boolean(opGT, l, r) }

// GE returns l >= r.
func GE(l, r Expr) Expr { return boolean(opGE, l, r) }

// EQ returns l == r.
func EQ(l, r Expr) Expr { return boolean(opEQ, l, r) }

// NE returns l != r.
func NE(l, r Expr) Expr { return boolean(opNE, l, r) }

// Between returns lo <= e AND e <= hi.
func Between(e, lo, hi Expr) Expr { return And(GE(e, lo), LE(e, hi)) }

// And returns l AND r.
func And(l, r Expr) Expr { return boolean(opAnd, l, r) }

// Or returns l OR r.
func Or(l, r Expr) Expr { return boolean(opOr, l, r) }

// Not returns NOT l.
func Not(l Expr) Expr { return boolean(opNot, l) }

// --- string predicates ---

// Like implements SQL LIKE with % wildcards (the _ wildcard is not needed by
// TPC-H and unsupported).
func Like(e Expr, pattern string) Expr {
	return &node{op: opLike, kind: vector.Bool, args: []Expr{e}, x: imm{s: pattern}}
}

// NotLike is the negation of Like.
func NotLike(e Expr, pattern string) Expr {
	return &node{op: opLike, kind: vector.Bool, args: []Expr{e}, x: imm{s: pattern, b: true}}
}

// InStr tests membership in a string list.
func InStr(e Expr, vals ...string) Expr {
	return &node{op: opInStr, kind: vector.Bool, args: []Expr{e}, strs: vals}
}

// InInt64 tests membership in an integer list.
func InInt64(e Expr, vals ...int64) Expr {
	return &node{op: opInInt, kind: vector.Bool, args: []Expr{e}, ints: vals}
}

// Substr returns the 1-based substring of fixed length (SQL SUBSTRING(e FROM
// start FOR length)). A start below 1 reads from the first byte and a
// negative length yields the empty string; the SQL binder rejects both.
func Substr(e Expr, start, length int) Expr {
	return &node{op: opSubstr, kind: vector.String, args: []Expr{e}, x: imm{i: int64(start)}, y: imm{i: int64(length)}}
}

// --- dates ---

// Year extracts the civil year of a date column (int32 days since epoch).
func Year(e Expr) Expr { return &node{op: opYear, kind: vector.Int32, args: []Expr{e}} }

// --- CASE WHEN ---

// Case returns then where when is true, otherwise els. then and els must
// have the same kind.
func Case(when, then, els Expr) Expr {
	return &node{op: opCase, kind: then.Kind(), args: []Expr{when, then, els}}
}

// SelFromBool converts a dense boolean vector into a selection vector over
// the batch it was computed from (composing with the batch's existing
// selection).
func SelFromBool(v *vector.Vec, b *vector.Batch) []int32 {
	bits := v.Bools()
	out := make([]int32, 0, len(bits))
	if b.Sel == nil {
		for i, ok := range bits {
			if ok {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for i, ok := range bits {
		if ok {
			out = append(out, b.Sel[i])
		}
	}
	return out
}
