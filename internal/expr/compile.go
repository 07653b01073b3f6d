package expr

import (
	"fmt"
	"math"
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
	phys  []*vector.Vec // filter programs' column registers: the batch's own vector, read in place

	// Filter state: the candidate list successive conjuncts narrow (physical
	// positions in the batch's vectors), its buffer, the identity list 0..n-1
	// of a batch longer than the shared one, the batch's selection, and the
	// buffer a bool register computed over that selection is scattered into.
	cand, selBuf, ident, live []int32
	okBuf                     []bool
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
	// gather: a register-writing primitive reads the column, so under a
	// selection bind gathers its live values. A column only selection
	// primitives read is read in place and never copied.
	gather bool
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
	// sel: a filter program's selection primitive. It narrows the candidate
	// list and writes no register; its operands a and b are column registers
	// (read in the batch's own vectors) or, for opSelTrue only, a computed
	// bool register.
	sel bool
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
	return &Program{cols: make([]colRef, 0, nReg), outs: make([]int32, 0, nOut), kinds: make([]vector.Kind, 0, nReg),
		regs: make([]*vector.Vec, 0, nReg), own: make([]*vector.Vec, 0, nReg), phys: make([]*vector.Vec, 0, nReg)}
}

func (p *Program) newReg(k vector.Kind) int32 {
	p.kinds, p.regs, p.own, p.phys = append(p.kinds, k), append(p.regs, nil), append(p.own, nil), append(p.phys, nil)
	return int32(len(p.kinds) - 1)
}

// col returns the register of column reference n, marking the column
// gathered when a register-writing primitive reads it.
func (p *Program) col(n *node, gather bool) int32 {
	for i := range p.cols {
		if c := &p.cols[i]; c.idx == int(n.x.i) && c.kind == n.kind {
			c.gather = c.gather || gather
			return c.reg
		}
	}
	r := p.newReg(n.kind)
	p.cols = append(p.cols, colRef{int(n.x.i), n.kind, r, gather})
	return r
}

// bareCol returns e when it is a column reference, else nil.
func bareCol(e Expr) *node {
	if n, ok := e.(*node); ok && n.op == opCol {
		return n
	}
	return nil
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
		return p.col(n, true), nil
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
		l, r, err := cmpSig(n, &in)
		if err != nil {
			return 0, err
		}
		if in.a, err = p.reg(l); err != nil {
			return 0, err
		}
		if in.b, in.x, err = p.operand(r); err != nil {
			return 0, err
		}
		if in.kind == vector.String && in.b < 0 {
			in.strCmp()
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
	case opLike, opInStr, opInInt:
		in.test(n)
		err = unary(testsKind(n.op, k0))
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

// test prepares the scalar test of a LIKE or IN primitive once: the
// pattern's pieces, or the sorted list.
func (in *prim) test(n *node) {
	switch n.op {
	case opLike:
		in.x, in.list, in.pred = imm{b: n.x.b}, fmt.Sprintf("%q, negate=%v", n.x.s, n.x.b), likePred(n.x.s, n.x.b)
	case opInStr:
		set := slices.Clone(n.strs)
		slices.Sort(set)
		in.list = fmt.Sprintf("%q", set)
		in.pred = func(s string) bool {
			if len(set) <= shortList {
				return slices.Contains(set, s)
			}
			_, ok := slices.BinarySearch(set, s)
			return ok
		}
	case opInInt:
		in.ints = slices.Clone(n.ints)
		slices.Sort(in.ints)
		in.list = fmt.Sprint(in.ints)
	}
}

// testsKind reports whether a LIKE or IN primitive applies to operand kind k.
func testsKind(op opcode, k vector.Kind) bool {
	if op == opInInt {
		return isInt(k)
	}
	return k == vector.String
}

// strCmp prepares a string comparison with the literal in.x as a scalar test.
func (in *prim) strCmp() {
	op, lit := in.op, in.x.s
	in.pred = func(s string) bool { return cmpOne(op, s, lit) }
}

// cmpSig sets up a comparison primitive's signature and returns its
// operands left to right: both compared as strings, as float64 when either
// side is, as int64 otherwise; a literal left operand is mirrored to the
// right.
func cmpSig(n *node, in *prim) (l, r Expr, err error) {
	l, r, op := n.args[0], n.args[1], n.op
	lk, rk := l.Kind(), r.Kind()
	in.sig = sig{op: op, kind: vector.Int64, a: -1, b: -1, c: -1}
	switch {
	case lk == vector.String && rk == vector.String:
		in.kind = vector.String
	case !isNumeric(lk) || !isNumeric(rk):
		return nil, nil, fmt.Errorf("expr: compare %v with %v in %s", lk, rk, n)
	case lk == vector.Float64 || rk == vector.Float64:
		in.kind = vector.Float64
	}
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		in.op = mirror[op]
	}
	return l, r, nil
}

// Filter is a predicate compiled for Select: its top-level conjuncts narrow
// one candidate list in turn, in the order given. A conjunct that tests bare
// columns is a selection primitive that reads the batch's own vectors at the
// candidates alone: a bool column; a numeric column (or a scaled decimal
// column) against a literal, or against another numeric column; LIKE, IN or a
// comparison of a string column with literals (over dictionary codes, one
// verdict per dictionary value); an integer column IN a list. Any other
// conjunct (OR, NOT, CASE, arithmetic, casts, SUBSTRING) is evaluated into a
// bool register over exactly the batch's live rows, gathered under its
// selection, and applied by one more selection primitive.
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
	if in, ok := p.selPrim(n); ok {
		p.prims = append(p.prims, in)
		return nil
	}
	r, err := p.reg(e)
	p.prims = append(p.prims, prim{sig: sig{op: opSelTrue, kind: vector.Bool, a: r, b: -1, c: -1}, sel: true})
	return err
}

// selPrim compiles conjunct n as a selection primitive over bare columns (see
// Filter); ok is false for a conjunct of any other shape, which the caller
// compiles into a bool register — reporting whatever error it has.
func (p *Program) selPrim(n *node) (in prim, ok bool) {
	if n == nil {
		return prim{}, false
	}
	in = prim{sig: sig{op: n.op, kind: n.kind, a: -1, b: -1, c: -1}, sel: true}
	switch {
	case n.op == opCol:
		in.op, in.a = opSelTrue, p.col(n, false)
		return in, true
	case n.op == opLike || n.op == opInStr || n.op == opInInt:
		c := bareCol(n.args[0])
		if c == nil || !testsKind(n.op, c.kind) {
			return prim{}, false
		}
		in.test(n)
		in.a = p.col(c, false)
		return in, true
	case !n.op.isCmp():
		return prim{}, false
	}
	l, r, err := cmpSig(n, &in)
	if err != nil {
		return prim{}, false
	}
	if col, f := storageCol(l); col != nil && f != 0 && isLiteral(r) {
		// float64(x)*f ⋚ c is monotone in the integer x: an integer compare
		// on the stored value decides exactly the same rows.
		if in.op, in.x, ok = scaledCut(in.op, f, r.(*node).x.float()); !ok {
			return prim{}, false
		}
		in.kind, l, r = vector.Int64, col, nil
	}
	lc, rc := bareCol(l), bareCol(r)
	switch {
	case lc == nil, r != nil && rc == nil && !isLiteral(r), rc != nil && in.kind == vector.String:
		return prim{}, false
	case r != nil && rc == nil:
		in.x = r.(*node).x
	}
	in.a = p.col(lc, false)
	if rc != nil {
		in.b = p.col(rc, false)
	}
	if in.kind == vector.String {
		in.strCmp()
	}
	return in, true
}

// The kernel kinds a conjunct's test runs on, cheapest first, and their cost
// per input row relative to a fixed-width compare, from BenchmarkExprProgram's
// Filter.Match cases and their string siblings (2-vCPU Xeon, per candidate: a
// code lookup 0.94 ns, a compare passing half the rows 1.0 ns, a string = or
// IN 6–13 ns, a LIKE of one infix over 30-byte strings 16–20 ns).
const (
	kernCode  = iota // a verdict looked up by dictionary code
	kernFixed        // a fixed-width compare, or any other numeric primitive
	kernStr          // a string compare or IN test
	kernLike         // a LIKE match
)

var kernelCost = [...]float64{kernCode: 0.9, kernFixed: 1, kernStr: 8, kernLike: 20}

// shortList is the longest IN list tested by a scan rather than a binary
// search.
const shortList = 16

// Cost estimates what a Filter compiled from pred spends per input row,
// relative to one fixed-width compare: every primitive charged by its kernel
// kind. A decimal column's scale is free, as a compare with a literal folds
// it into an integer cut (scaledCut). With codes, string columns arrive as
// dictionary codes, on which a point test (=, <> or IN against literals) of a
// column is a code lookup.
func Cost(pred Expr, codes bool) float64 {
	n, ok := pred.(*node)
	if col, _ := storageCol(pred); !ok || col != nil || n.op == opConst {
		return 0
	}
	c := 0.0
	for _, a := range n.args {
		c += Cost(a, codes)
	}
	str := len(n.args) > 0 && n.args[0].Kind() == vector.String
	switch {
	case n.op == opLike:
		return c + kernelCost[kernLike]
	case codes && str && pointTest(n):
		return c + kernelCost[kernCode]
	case str:
		return c + kernelCost[kernStr]
	}
	return c + kernelCost[kernFixed]
}

// pointTest reports whether n tests a bare column for (in)equality with
// literals: a test decided once per dictionary value.
func pointTest(n *node) bool {
	switch n.op {
	case opInStr:
		return bareCol(n.args[0]) != nil
	case opEQ, opNE:
		l, r := n.args[0], n.args[1]
		return bareCol(l) != nil && isLiteral(r) || isLiteral(l) && bareCol(r) != nil
	}
	return false
}

// scaledCut turns float64(x)*f ⋚ c, for an integer x and a finite f > 0, into
// the integer comparison of x with a cut point that holds for exactly the
// same x: the product is monotone in x, so the rows that pass form a prefix or
// a suffix of the integers, and a binary search under the float comparison
// itself finds its end. ok is false for = and <>, which pass an interval.
func scaledCut(op opcode, f, c float64) (opcode, imm, bool) {
	holds := func(x int64) bool { return cmpOne(op, float64(x)*f, c) }
	up := op == opGT || op == opGE // the passing x are a suffix
	if !up && op != opLT && op != opLE {
		return 0, imm{}, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch {
	case holds(lo) && holds(hi):
		return opGE, immInt(math.MinInt64), true // every x
	case !holds(lo) && !holds(hi):
		return opLT, immInt(math.MinInt64), true // none
	}
	// holds(lo) != holds(hi): narrow [lo, hi] to the adjacent pair where the
	// verdict flips.
	for uint64(hi)-uint64(lo) > 1 {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if holds(mid) == holds(lo) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if up {
		return opGE, immInt(hi), true
	}
	return opLE, immInt(lo), true
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
// buffers — once per distinct column, however often it is referenced, and
// only for the columns a register-writing primitive reads.
func (p *Program) bind(b *vector.Batch) error {
	for _, c := range p.cols {
		if c.idx >= len(b.Vecs) {
			return fmt.Errorf("expr: column $%d out of range (%d cols)", c.idx, len(b.Vecs))
		}
		v := b.Vecs[c.idx]
		if v.Kind() != c.kind {
			return fmt.Errorf("expr: column $%d is %v, expected %v", c.idx, v.Kind(), c.kind)
		}
		switch {
		case b.Sel == nil:
			p.regs[c.reg] = v
		case c.gather:
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

// Match evaluates the predicate over the n live rows of b and returns those
// that satisfy it as physical positions in b's vectors, in b's order: a
// subsequence of b.Sel, or of 0..n-1 without one. The result is the filter's
// scratch, read-only and valid until its next call. b needs to hold only the
// columns the predicate reads, which is how a scan decides a span before it
// has decoded the others.
func (f *Filter) Match(b *vector.Batch, n int) ([]int32, error) {
	p := f.p
	if err := p.bind(b); err != nil {
		return nil, err
	}
	for _, c := range p.cols {
		p.phys[c.reg] = b.Vecs[c.idx] // what selection primitives read, in place
	}
	if cap(p.selBuf) < n {
		p.selBuf = make([]int32, max(n, vector.MaxSize))
	}
	p.live, p.cand = b.Sel, b.Sel
	if b.Sel == nil {
		p.cand = identity
		if n > len(identity) {
			for len(p.ident) < n {
				p.ident = append(p.ident, int32(len(p.ident)))
			}
			p.cand = p.ident
		}
		p.cand = p.cand[:n]
	}
	for i := range p.prims {
		in := &p.prims[i]
		if in.sel {
			p.narrow(in)
		} else if err := p.exec(in, n); err != nil {
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
	return &vector.Batch{Vecs: b.Vecs, Sel: slices.Clone(cand)}, nil
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
