package expr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"vectorh/internal/compress"
	"vectorh/internal/vector"
)

// Program is the executable form of the expressions one operator instance
// evaluates: a straight-line sequence of typed primitives over a register
// file. A register is either one of the current batch's own vectors (a
// column reference under no selection), or a buffer the program owns and
// refills on every Run.
//
// Ownership: Out returns operator-owned scratch, valid until the next Run —
// right for anything that does not leave the operator (aggregate arguments,
// keys, predicates, hash inputs). Take hands a result over to the caller for
// good (Project outputs); the program allocates a replacement on its next
// Run. A Program is not safe for concurrent use: every operator instance
// compiles its own from the shared, immutable Exprs.
type Program struct {
	cols  []colRef
	prims []prim
	outs  []int32
	kinds []vector.Kind // per register
	regs  []*vector.Vec // value of every register after Run
	own   []*vector.Vec // the program's buffers; nil where none is needed or it was taken

	// Filter state: the candidate list successive conjuncts narrow (positions
	// among the batch's live rows), its buffer, and the identity list 0..n-1
	// of a batch longer than the shared one.
	cand, selBuf, ident []int32
}

// identity is 0..MaxSize-1, the candidate list every filter starts from. It is
// never written — a narrowing primitive reads its candidates and writes the
// program's own buffer — so all programs share it.
var identity = func() []int32 {
	s := make([]int32, vector.MaxSize)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

type colRef struct {
	idx  int
	kind vector.Kind
	reg  int32
}

// sig is what a primitive computes: an opcode, the domain its kernel works
// in, and up to three operands, each a register or an immediate. Two
// sub-expressions with equal signatures share one register.
type sig struct {
	op opcode
	// kind is the result kind, except for comparisons, where it is the kind
	// both sides are compared in (int64, float64 or string).
	kind    vector.Kind
	a, b, c int32 // operand registers; -1: absent, or the immediate (x for a or b, y for c)
	x, y    imm
	list    string // text of an IN list or LIKE pattern: part of the signature, and the disassembly
}

// prim is one primitive of a program.
type prim struct {
	sig
	sel bool  // filter programs: narrows the candidate list, writes no register
	out int32 // destination register

	// String predicates (LIKE, IN, comparison with a literal) are set up once
	// here: pred is the scalar test, ints the sorted integer IN list, and
	// dict/verdicts cache pred over the dictionary of the last code vector.
	pred     func(string) bool
	ints     []int64
	dict     *compress.StrDict
	verdicts []bool
}

// Compile flattens the expressions into one program whose i-th output is
// exprs[i]. Everything that can be decided from the kinds alone is decided
// here — arithmetic on non-numbers, CASE branches of different kinds,
// LIKE/IN/SUBSTRING/YEAR on the wrong kind fail with the offending
// sub-expression named — and LIKE patterns and IN lists are prepared once.
func Compile(exprs ...Expr) (*Program, error) {
	p := newProgram(len(exprs), len(exprs))
	for _, e := range exprs {
		r, err := p.reg(e)
		if err != nil {
			return nil, err
		}
		p.outs = append(p.outs, r)
	}
	return p, nil
}

// newProgram sizes a program for nOut outputs over nReg registers. A program
// of n expressions that are plain columns — what most programs of a query are
// (join, exchange and group keys) — has n of each and costs four small
// allocations; expression-heavy ones grow from there.
func newProgram(nOut, nReg int) *Program {
	return &Program{cols: make([]colRef, 0, nReg), outs: make([]int32, 0, nOut),
		kinds: make([]vector.Kind, 0, nReg), regs: make([]*vector.Vec, 0, nReg), own: make([]*vector.Vec, 0, nReg)}
}

func (p *Program) newReg(k vector.Kind) int32 {
	p.kinds, p.regs, p.own = append(p.kinds, k), append(p.regs, nil), append(p.own, nil)
	return int32(len(p.kinds) - 1)
}

// emit appends a register-writing primitive unless an equal one exists
// (programs are a few dozen primitives: a scan beats building a map).
func (p *Program) emit(in *prim, outKind vector.Kind) int32 {
	for i := range p.prims {
		if q := &p.prims[i]; q.sig == in.sig && !q.sel {
			return q.out
		}
	}
	in.out = p.newReg(outKind)
	p.prims = append(p.prims, *in)
	return in.out
}

// operand compiles e for a kernel that takes immediates: a literal stays a
// literal (register -1), anything else becomes a register.
func (p *Program) operand(e Expr) (int32, imm, error) {
	if isLiteral(e) {
		return -1, e.(*node).x, nil
	}
	r, err := p.reg(e)
	return r, imm{}, err
}

func isLiteral(e Expr) bool {
	n, ok := e.(*node)
	return ok && n.op == opConst
}

// reg compiles e into a register (a literal is broadcast).
func (p *Program) reg(e Expr) (int32, error) {
	n, ok := e.(*node)
	if !ok {
		return 0, fmt.Errorf("expr: cannot compile %T %s", e, e)
	}
	in := prim{sig: sig{op: n.op, kind: n.kind, a: -1, b: -1, c: -1}}
	// unary compiles the single argument once its kind has been checked.
	unary := func(kindOK bool) (err error) {
		if !kindOK {
			return fmt.Errorf("expr: %s on %v in %s", opNames[n.op], n.args[0].Kind(), n)
		}
		in.a, err = p.reg(n.args[0])
		return err
	}
	var k0 vector.Kind
	if len(n.args) > 0 {
		k0 = n.args[0].Kind()
	}
	isInt := k0 == vector.Int32 || k0 == vector.Int64
	var err error
	switch n.op {
	case opCol:
		for _, col := range p.cols {
			if col.idx == int(n.x.i) && col.kind == n.kind {
				return col.reg, nil
			}
		}
		r := p.newReg(n.kind)
		p.cols = append(p.cols, colRef{int(n.x.i), n.kind, r})
		return r, nil
	case opConst:
		in.x = n.x
	case opAdd, opSub, opMul, opDiv:
		if rk := n.args[1].Kind(); !isNumeric(k0) || !isNumeric(rk) {
			return 0, fmt.Errorf("expr: arithmetic on %v/%v in %s", k0, rk, n)
		}
		if in.a, in.x, err = p.operand(n.args[0]); err != nil {
			return 0, err
		}
		if in.a < 0 {
			in.b, err = p.reg(n.args[1])
		} else {
			in.b, in.x, err = p.operand(n.args[1])
		}
	case opScaled:
		// scaled(e, f) is float64(e) * f: the multiply kernel with f as its
		// immediate and the conversion inside its loop.
		in.op, in.x = opMul, n.x
		err = unary(isNumeric(k0))
	case opLT, opLE, opGT, opGE, opEQ, opNE:
		if err = p.cmp(n, &in); err != nil {
			return 0, err
		}
		return p.emit(&in, vector.Bool), nil
	case opAnd, opOr, opNot:
		for _, a := range n.args {
			if a.Kind() != vector.Bool {
				return 0, fmt.Errorf("expr: boolean op on %v in %s", a.Kind(), n)
			}
		}
		if err = unary(true); err == nil && n.op != opNot {
			in.b, err = p.reg(n.args[1])
		}
	case opCastInt32, opCastInt64:
		if isInt && k0 == n.kind {
			return p.reg(n.args[0]) // already the target kind: no primitive
		}
		err = unary(isInt)
	case opToScaled:
		in.x = n.x
		err = unary(isNumeric(k0))
	case opLike:
		in.x, in.list, in.pred = imm{b: n.x.b}, fmt.Sprintf("%q, negate=%v", n.x.s, n.x.b), likePred(n.x.s, n.x.b)
		err = unary(k0 == vector.String)
	case opInStr:
		set := slices.Clone(n.strs)
		slices.Sort(set)
		in.list = fmt.Sprintf("%q", set)
		in.pred = func(s string) bool { _, ok := slices.BinarySearch(set, s); return ok }
		err = unary(k0 == vector.String)
	case opInInt:
		in.ints = slices.Clone(n.ints)
		slices.Sort(in.ints)
		in.list = fmt.Sprint(in.ints)
		err = unary(isInt)
	case opSubstr:
		in.x, in.y = n.x, n.y
		err = unary(k0 == vector.String)
	case opYear:
		err = unary(k0 == vector.Int32)
	case opCase:
		if k0 != vector.Bool {
			return 0, fmt.Errorf("expr: CASE condition is %v in %s", k0, n)
		}
		if tk, ek := n.args[1].Kind(), n.args[2].Kind(); tk != ek {
			return 0, fmt.Errorf("expr: CASE branches %v vs %v in %s", tk, ek, n)
		}
		if err = unary(true); err != nil {
			return 0, err
		}
		if in.b, in.x, err = p.operand(n.args[1]); err != nil {
			return 0, err
		}
		in.c, in.y, err = p.operand(n.args[2])
	default:
		return 0, fmt.Errorf("expr: cannot compile %s", n)
	}
	if err != nil {
		return 0, err
	}
	return p.emit(&in, in.kind), nil
}

// cmp builds a comparison primitive: left operand a register, right operand a
// register or an immediate (literal ⊕ column is mirrored), both compared as
// strings, as float64 when either side is, as int64 otherwise.
func (p *Program) cmp(n *node, in *prim) error {
	l, r, op := n.args[0], n.args[1], n.op
	lk, rk := l.Kind(), r.Kind()
	in.sig = sig{op: op, kind: vector.Int64, a: -1, b: -1, c: -1}
	switch {
	case lk == vector.String && rk == vector.String:
		in.kind = vector.String
	case !isNumeric(lk) || !isNumeric(rk):
		return fmt.Errorf("expr: compare %v with %v in %s", lk, rk, n)
	case lk == vector.Float64 || rk == vector.Float64:
		in.kind = vector.Float64
	}
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		in.op = mirror[op]
	}
	var err error
	if in.a, err = p.reg(l); err != nil {
		return err
	}
	if in.b, in.x, err = p.operand(r); err != nil {
		return err
	}
	if in.kind == vector.String && in.b < 0 {
		op, lit := in.op, in.x.s
		in.pred = func(s string) bool { return cmpStr(op, s, lit) }
	}
	return nil
}

// Filter is a predicate compiled for Select: its top-level conjuncts narrow
// one candidate list in turn. A numeric comparison with a literal is a
// selection-producing kernel; any other conjunct (OR, NOT, LIKE, IN, string
// and column-to-column comparisons, a bool column) is evaluated into a bool
// register and applied in one pass.
type Filter struct{ p *Program }

// CompileFilter compiles a boolean predicate; Compile's errors apply, and a
// predicate that is not boolean is one of them. Every stream of a scan
// compiles its own, so the program starts at the size of a typical predicate
// part — a few primitives over a few registers — and seldom regrows.
func CompileFilter(pred Expr) (*Filter, error) {
	p := newProgram(0, 4)
	p.prims = make([]prim, 0, 4)
	if err := p.conjunct(pred); err != nil {
		return nil, err
	}
	return &Filter{p}, nil
}

func (p *Program) conjunct(e Expr) error {
	if e.Kind() != vector.Bool {
		return fmt.Errorf("expr: predicate %s is %v, not bool", e, e.Kind())
	}
	n, _ := e.(*node)
	if n != nil && n.op == opAnd {
		if err := p.conjunct(n.args[0]); err != nil {
			return err
		}
		return p.conjunct(n.args[1])
	}
	if n != nil && n.op.isCmp() && isNumeric(n.args[0].Kind()) && isNumeric(n.args[1].Kind()) &&
		isLiteral(n.args[0]) != isLiteral(n.args[1]) {
		in := prim{sel: true}
		if err := p.cmp(n, &in); err != nil {
			return err
		}
		p.prims = append(p.prims, in)
		return nil
	}
	r, err := p.reg(e)
	p.prims = append(p.prims, prim{sig: sig{op: opSelTrue, kind: vector.Bool, a: r, b: -1, c: -1}, sel: true})
	return err
}

// NumPrims is the program size: the number of primitives executed per batch
// (column references are register bindings, not primitives).
func (p *Program) NumPrims() int { return len(p.prims) }

// String prints the filter's disassembly.
func (f *Filter) String() string { return f.p.String() }

// scratch returns register r's own buffer, making it the register's value.
func (p *Program) scratch(r int32, n int) *vector.Vec {
	v := p.own[r]
	if v == nil {
		if p.kinds[r] == vector.String {
			v = vector.FromString(nil) // codes or strings: sized by the first fill
		} else {
			v = vector.New(p.kinds[r], max(n, 1))
		}
		p.own[r] = v
	}
	p.regs[r] = v
	return v
}

// dst returns register r's own buffer resized to n values.
func (p *Program) dst(r int32, n int) *vector.Vec {
	v := p.scratch(r, n)
	v.Resize(n)
	return v
}

// bind points the column registers at b: the batch's own vectors when it has
// no selection, otherwise the selected values gathered into program-owned
// buffers — once per distinct column, however often it is referenced.
func (p *Program) bind(b *vector.Batch) error {
	for _, c := range p.cols {
		if c.idx >= len(b.Vecs) {
			return fmt.Errorf("expr: column $%d out of range (%d cols)", c.idx, len(b.Vecs))
		}
		v := b.Vecs[c.idx]
		if v.Kind() != c.kind {
			return fmt.Errorf("expr: column $%d is %v, expected %v", c.idx, v.Kind(), c.kind)
		}
		if b.Sel == nil {
			p.regs[c.reg] = v
		} else {
			p.scratch(c.reg, v.Len()).GatherFrom(v, b.Sel) // sized for any selection of v
		}
	}
	return nil
}

// Run evaluates every output over the live rows of b.
func (p *Program) Run(b *vector.Batch) error {
	if err := p.bind(b); err != nil {
		return err
	}
	n := b.Len()
	for i := range p.prims {
		if err := p.exec(&p.prims[i], n); err != nil {
			return err
		}
	}
	return nil
}

// RunInto is Run followed by dst[i] = Out(i) for the first len(dst) outputs:
// how operators fetch the key columns they pass on to a hash table.
func (p *Program) RunInto(b *vector.Batch, dst []*vector.Vec) error {
	err := p.Run(b)
	for i := range dst {
		dst[i] = p.regs[p.outs[i]]
	}
	return err
}

// Out returns output i of the last Run: dense, b.Len() long, and the
// program's scratch — valid until the next Run.
func (p *Program) Out(i int) *vector.Vec { return p.regs[p.outs[i]] }

// Take returns output i of the last Run and gives it up: the vector is the
// caller's to keep and hand downstream.
func (p *Program) Take(i int) *vector.Vec {
	r := p.outs[i]
	v := p.regs[r]
	if p.own[r] == v {
		p.own[r] = nil
	}
	return v
}

// Match evaluates the predicate over the n live rows of b and returns the
// positions among them (ascending, in 0..n-1) that satisfy it: the filter's
// scratch, read-only and valid until its next call. b needs to hold only the
// columns the predicate reads, which is how a scan decides a span before it
// has decoded the others.
func (f *Filter) Match(b *vector.Batch, n int) ([]int32, error) {
	p := f.p
	if err := p.bind(b); err != nil {
		return nil, err
	}
	ident := identity
	if n > len(ident) {
		for len(p.ident) < n {
			p.ident = append(p.ident, int32(len(p.ident)))
		}
		ident = p.ident
	}
	if cap(p.selBuf) < n {
		p.selBuf = make([]int32, max(n, vector.MaxSize))
	}
	p.cand = ident[:n]
	for i := range p.prims {
		if err := p.exec(&p.prims[i], n); err != nil {
			return nil, err
		}
	}
	return p.cand, nil
}

// Select returns b restricted to the rows satisfying the predicate: nil when
// there are none, b itself when all qualify, otherwise b's vectors under a
// freshly allocated selection vector (it leaves the operator).
func (f *Filter) Select(b *vector.Batch) (*vector.Batch, error) {
	cand, err := f.Match(b, b.Len())
	switch {
	case err != nil || len(cand) == 0:
		return nil, err
	case len(cand) == b.Len():
		return b, nil
	}
	sel := make([]int32, len(cand))
	if b.Sel == nil {
		copy(sel, cand)
	} else {
		for i, r := range cand {
			sel[i] = b.Sel[r]
		}
	}
	return &vector.Batch{Vecs: b.Vecs, Sel: sel}, nil
}

var kindNames = [...]string{vector.Bool: "bool", vector.Int32: "i32", vector.Int64: "i64",
	vector.Float64: "f64", vector.String: "str"}

// String prints the disassembly, one line per primitive:
//
//	r5 = mul.f64 $4:i64, 0.01
//	r7 = sub.f64 1, r6
//	sel = lt.i64 $10:i32, 9131
//
// A column register prints as its batch position and kind, so a conversion
// inside a kernel (an i64 column under a .f64 primitive) is visible; the last
// line lists the output registers.
func (p *Program) String() string {
	var sb strings.Builder
	// operand prints register r, or the immediate m where there is none.
	operand := func(sep string, r int32, m imm, k vector.Kind) {
		sb.WriteString(sep)
		for _, c := range p.cols {
			if c.reg == r {
				fmt.Fprintf(&sb, "$%d:%s", c.idx, kindNames[c.kind])
				return
			}
		}
		switch {
		case r >= 0:
			fmt.Fprintf(&sb, "r%d", r)
		case k == vector.String:
			sb.WriteString(strconv.Quote(m.s))
		default:
			sb.WriteString(m.format(k))
		}
	}
	for i := range p.prims {
		in := &p.prims[i]
		if in.sel {
			sb.WriteString("sel")
		} else {
			operand("", in.out, imm{}, 0)
		}
		fmt.Fprintf(&sb, " = %s.%s", opNames[in.op], kindNames[in.kind])
		if in.op != opConst {
			operand(" ", in.a, in.x, in.kind)
		}
		switch {
		case in.op == opConst:
			operand(" ", -1, in.x, in.kind)
		case in.op >= opAdd && in.op <= opOr:
			operand(", ", in.b, in.x, in.kind)
		case in.op == opCase:
			operand(", ", in.b, in.x, in.kind)
			operand(", ", in.c, in.y, in.kind)
		case in.op == opToScaled:
			operand(", ", -1, in.x, vector.Float64)
		case in.op == opSubstr:
			operand(", ", -1, in.x, vector.Int64)
			operand(", ", -1, in.y, vector.Int64)
		}
		if in.list != "" {
			fmt.Fprintf(&sb, ", %s", in.list)
		}
		sb.WriteByte('\n')
	}
	sep := "out "
	for _, r := range p.outs {
		operand(sep, r, imm{}, 0)
		sep = ", "
	}
	if len(p.outs) > 0 {
		sb.WriteByte('\n')
	}
	return sb.String()
}
