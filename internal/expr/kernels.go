package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"vectorh/internal/vector"
)

// The primitives: tight typed loops over slices, one float or integer
// operation per value. Results are bit-identical to evaluating the tree node
// by node — each loop performs the IEEE operations a node-at-a-time
// interpreter would, in the same order — and no loop chains two float
// operations, so the compiler has nothing to contract into a fused
// multiply-add. A kernel that ever does must wrap the intermediate in an
// explicit float64(...) conversion, which Go guarantees rounds.

type num interface{ int32 | int64 | float64 }

// exec runs one primitive over n values.
func (p *Program) exec(in *prim, n int) error {
	switch in.op {
	case opConst:
		if in.kind == vector.String { // strings append to a new arena
			out := p.dst(in.out, 0)
			for range n {
				out.AppendString(in.x.s)
			}
			break
		}
		out := p.dst(in.out, n)
		switch in.kind {
		case vector.Bool:
			fill(out.Bools(), in.x.b)
		case vector.Int32:
			fill(out.Int32s(), int32(in.x.i))
		case vector.Int64:
			fill(out.Int64s(), in.x.i)
		case vector.Float64:
			fill(out.Float64s(), in.x.float())
		}
	case opAdd, opSub, opMul, opDiv, opLT, opLE, opGT, opGE, opEQ, opNE:
		switch in.kind {
		case vector.String:
			l := p.regs[in.a]
			if in.b < 0 {
				p.strPred(in, l, p.dst(in.out, n).Bools())
				break
			}
			r, out := p.regs[in.b], p.dst(in.out, n).Bools()
			for i := range out {
				out[i] = cmpOne(in.op, l.StrAt(i), r.StrAt(i))
			}
		case vector.Float64:
			var out []float64
			if in.op.isArith() {
				out = p.dst(in.out, n).Float64s()
			}
			binaryL(p, in, n, out, in.x.float())
		default:
			var out []int64
			if in.op.isArith() {
				out = p.dst(in.out, n).Int64s()
			}
			binaryL(p, in, n, out, in.x.i)
		}
	case opAnd, opOr:
		l, r, out := p.regs[in.a].Bools(), p.regs[in.b].Bools(), p.dst(in.out, n).Bools()
		if in.op == opAnd {
			for i := range out {
				out[i] = l[i] && r[i]
			}
		} else {
			for i := range out {
				out[i] = l[i] || r[i]
			}
		}
	case opNot:
		l, out := p.regs[in.a].Bools(), p.dst(in.out, n).Bools()
		for i := range out {
			out[i] = !l[i]
		}
	case opCastInt32:
		out := p.dst(in.out, n).Int32s()
		for i, x := range p.regs[in.a].Int64s() {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return fmt.Errorf("expr: value %d overflows int32", x)
			}
			out[i] = int32(x)
		}
	case opCastInt64:
		out := p.dst(in.out, n).Int64s()
		for i, x := range p.regs[in.a].Int32s() {
			out[i] = int64(x)
		}
	case opToScaled:
		out, scale := p.dst(in.out, n).Int64s(), in.x.float()
		switch l := p.regs[in.a]; l.Kind() {
		case vector.Int32:
			toScaled(out, l.Int32s(), scale)
		case vector.Int64:
			toScaled(out, l.Int64s(), scale)
		default:
			toScaled(out, l.Float64s(), scale)
		}
	case opLike, opInStr:
		p.strPred(in, p.regs[in.a], p.dst(in.out, n).Bools())
	case opInInt:
		out := p.dst(in.out, n).Bools()
		if l := p.regs[in.a]; l.Kind() == vector.Int32 {
			inSorted(out, l.Int32s(), in.ints)
		} else {
			inSorted(out, l.Int64s(), in.ints)
		}
	case opSubstr:
		// Bounds are clamped before any arithmetic on them: start-1 and
		// start+length overflow for operands near the int64 limits.
		src, out := p.regs[in.a], p.dst(in.out, 0)
		for i := range n {
			s := src.StrAt(i)
			lo := min(max(in.x.i, 1)-1, int64(len(s)))
			out.AppendString(s[lo : lo+min(max(in.y.i, 0), int64(len(s))-lo)])
		}
	case opYear:
		out := p.dst(in.out, n).Int32s()
		for i, d := range p.regs[in.a].Int32s() {
			out[i] = vector.YearOf(d)
		}
	case opCase:
		w := p.regs[in.a].Bools()
		if in.kind == vector.String {
			p.strBlend(in, w)
			break
		}
		out := p.dst(in.out, n)
		switch in.kind {
		case vector.Bool:
			blend(out.Bools(), w, p.branch(in.b), p.branch(in.c), in.x.b, in.y.b, (*vector.Vec).Bools)
		case vector.Int32:
			blend(out.Int32s(), w, p.branch(in.b), p.branch(in.c), int32(in.x.i), int32(in.y.i), (*vector.Vec).Int32s)
		case vector.Int64:
			blend(out.Int64s(), w, p.branch(in.b), p.branch(in.c), in.x.i, in.y.i, (*vector.Vec).Int64s)
		case vector.Float64:
			blend(out.Float64s(), w, p.branch(in.b), p.branch(in.c), in.x.float(), in.y.float(), (*vector.Vec).Float64s)
		}
	}
	return nil
}

func fill[T any](out []T, v T) {
	for i := range out {
		out[i] = v
	}
}

// --- numeric binary primitives ---
//
// binaryL/R/K resolve the operand kinds of an arithmetic or comparison
// primitive once per batch and call the kernel instantiated for them. D is
// the domain the primitive computes in; operands of another numeric kind
// convert to it inside the loop (an int column under float arithmetic costs
// no copy), and an immediate was converted when the program was compiled.

func binaryL[D num](p *Program, in *prim, n int, out []D, c D) {
	if in.a < 0 {
		binaryR(p, in, n, out, []D(nil), c)
		return
	}
	switch l := p.regs[in.a]; l.Kind() {
	case vector.Int32:
		binaryR(p, in, n, out, l.Int32s(), c)
	case vector.Int64:
		binaryR(p, in, n, out, l.Int64s(), c)
	default:
		binaryR(p, in, n, out, l.Float64s(), c)
	}
}

func binaryR[D, L num](p *Program, in *prim, n int, out []D, l []L, c D) {
	if in.b < 0 {
		binaryK(p, in, n, out, l, []D(nil), c)
		return
	}
	switch r := p.regs[in.b]; r.Kind() {
	case vector.Int32:
		binaryK(p, in, n, out, l, r.Int32s(), c)
	case vector.Int64:
		binaryK(p, in, n, out, l, r.Int64s(), c)
	default:
		binaryK(p, in, n, out, l, r.Float64s(), c)
	}
}

func binaryK[D, L, R num](p *Program, in *prim, n int, out []D, l []L, r []R, c D) {
	switch {
	case in.op.isArith() && in.a < 0:
		arithCV(in.op, out, c, r)
	case in.op.isArith() && in.b < 0:
		arithVC(in.op, out, l, c)
	case in.op.isArith():
		arithVV(in.op, out, l, r)
	case in.b < 0:
		cmpVC(in.op, p.dst(in.out, n).Bools(), l, c)
	default:
		cmpVV[D](in.op, p.dst(in.out, n).Bools(), l, r)
	}
}

func arithVV[D, L, R num](op opcode, out []D, l []L, r []R) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = D(l[i]) + D(r[i])
		}
	case opSub:
		for i := range out {
			out[i] = D(l[i]) - D(r[i])
		}
	case opMul:
		for i := range out {
			out[i] = D(l[i]) * D(r[i])
		}
	case opDiv:
		for i := range out {
			out[i] = D(l[i]) / D(r[i])
		}
	}
}

func arithVC[D, L num](op opcode, out []D, l []L, c D) {
	l = l[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = D(l[i]) + c
		}
	case opSub:
		for i := range out {
			out[i] = D(l[i]) - c
		}
	case opMul:
		for i := range out {
			out[i] = D(l[i]) * c
		}
	case opDiv:
		for i := range out {
			out[i] = D(l[i]) / c
		}
	}
}

func arithCV[D, R num](op opcode, out []D, c D, r []R) {
	r = r[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = c + D(r[i])
		}
	case opSub:
		for i := range out {
			out[i] = c - D(r[i])
		}
	case opMul:
		for i := range out {
			out[i] = c * D(r[i])
		}
	case opDiv:
		for i := range out {
			out[i] = c / D(r[i])
		}
	}
}

func cmpVV[D, L, R num](op opcode, out []bool, l []L, r []R) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case opLT:
		for i := range out {
			out[i] = D(l[i]) < D(r[i])
		}
	case opLE:
		for i := range out {
			out[i] = D(l[i]) <= D(r[i])
		}
	case opGT:
		for i := range out {
			out[i] = D(l[i]) > D(r[i])
		}
	case opGE:
		for i := range out {
			out[i] = D(l[i]) >= D(r[i])
		}
	case opEQ:
		for i := range out {
			out[i] = D(l[i]) == D(r[i])
		}
	case opNE:
		for i := range out {
			out[i] = D(l[i]) != D(r[i])
		}
	}
}

func cmpVC[D, L num](op opcode, out []bool, l []L, c D) {
	l = l[:len(out)]
	switch op {
	case opLT:
		for i := range out {
			out[i] = D(l[i]) < c
		}
	case opLE:
		for i := range out {
			out[i] = D(l[i]) <= c
		}
	case opGT:
		for i := range out {
			out[i] = D(l[i]) > c
		}
	case opGE:
		for i := range out {
			out[i] = D(l[i]) >= c
		}
	case opEQ:
		for i := range out {
			out[i] = D(l[i]) == c
		}
	case opNE:
		for i := range out {
			out[i] = D(l[i]) != c
		}
	}
}

// cmpOne applies one comparison to a pair of values (per value, or once per
// dictionary entry).
func cmpOne[T int64 | float64 | string](op opcode, a, b T) bool {
	switch op {
	case opLT:
		return a < b
	case opLE:
		return a <= b
	case opGT:
		return a > b
	case opGE:
		return a >= b
	case opEQ:
		return a == b
	default:
		return a != b
	}
}

// --- selection primitives ---
//
// A selection primitive narrows the candidate list p.cand — physical
// positions in the batch's vectors — into p.selBuf, which may be the list's
// own buffer: the write index never passes the read index. The loops are
// branch-free: each writes the candidate and advances the write index by the
// verdict, so no jump depends on the data (go tool objdump shows SETcc and an
// add, and only the loop's own and the bounds checks' jumps).

// b2i is 1 for true, 0 for false; the compiler emits it without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// narrow runs one selection primitive.
func (p *Program) narrow(in *prim) {
	dst := p.selBuf
	switch {
	case in.op == opSelTrue:
		p.cand = selTrue(dst, p.cand, p.truth(in.a))
	case in.op == opLike || in.op == opInStr || in.kind == vector.String:
		p.cand = p.selStr(in, dst)
	case in.op == opInInt:
		if l := p.phys[in.a]; l.Kind() == vector.Int32 {
			p.cand = selIn(dst, p.cand, l.Int32s(), in.ints)
		} else {
			p.cand = selIn(dst, p.cand, l.Int64s(), in.ints)
		}
	case in.kind == vector.Float64:
		p.cand = selL(p, in, dst, in.x.float())
	default:
		p.cand = selL(p, in, dst, in.x.i)
	}
}

// truth returns bool register r indexed by physical position: a bool column
// as it is, a register computed over the batch's live rows scattered to their
// positions when the batch has a selection.
func (p *Program) truth(r int32) []bool {
	if v := p.phys[r]; v != nil {
		return v.Bools()
	}
	ok := p.regs[r].Bools()
	if p.live == nil {
		return ok
	}
	n := 0
	for _, i := range p.live {
		n = max(n, int(i)+1)
	}
	if cap(p.okBuf) < n {
		p.okBuf = make([]bool, max(n, vector.MaxSize))
	}
	buf := p.okBuf[:n]
	for j, i := range p.live {
		buf[i] = ok[j]
	}
	return buf
}

func selTrue(dst, cand []int32, ok []bool) []int32 {
	k := 0
	for _, i := range cand {
		dst[k] = i
		k += b2i(ok[i])
	}
	return dst[:k]
}

// selStr is a string test against literals: over dictionary codes a lookup
// of the verdict of the row's dictionary value, over strings the test itself.
func (p *Program) selStr(in *prim, dst []int32) []int32 {
	v, k := p.phys[in.a], 0
	if v.IsDict() {
		verdicts, codes := in.verdictsOf(v), v.DictCodes()
		for _, i := range p.cand {
			dst[k] = i
			k += b2i(verdicts[codes[i]])
		}
		return dst[:k]
	}
	col := v.StrCol()
	for _, i := range p.cand {
		dst[k] = i
		k += b2i(in.pred(col.At(int(i))))
	}
	return dst[:k]
}

// selIn is an integer IN list: a branch-free scan of a short list, a binary
// search of a long one.
func selIn[L int32 | int64](dst, cand []int32, l []L, set []int64) []int32 {
	k := 0
	if len(set) > shortList {
		for _, i := range cand {
			dst[k] = i
			_, ok := slices.BinarySearch(set, int64(l[i]))
			k += b2i(ok)
		}
		return dst[:k]
	}
	for _, i := range cand {
		dst[k] = i
		x, hit := int64(l[i]), 0
		for _, v := range set {
			hit |= b2i(x == v)
		}
		k += hit
	}
	return dst[:k]
}

// selL and selR resolve a numeric comparison's column kinds once per batch,
// as binaryL/R do, and call selVC (column ⋚ literal) or selVV (column ⋚
// column) instantiated for them; D is the domain compared in.
func selL[D num](p *Program, in *prim, dst []int32, c D) []int32 {
	switch l := p.phys[in.a]; l.Kind() {
	case vector.Int32:
		return selR(p, in, dst, l.Int32s(), c)
	case vector.Int64:
		return selR(p, in, dst, l.Int64s(), c)
	default:
		return selR(p, in, dst, l.Float64s(), c)
	}
}

func selR[D, L num](p *Program, in *prim, dst []int32, l []L, c D) []int32 {
	if in.b < 0 {
		return selVC(in.op, dst, p.cand, l, c)
	}
	switch r := p.phys[in.b]; r.Kind() {
	case vector.Int32:
		return selVV[D](in.op, dst, p.cand, l, r.Int32s())
	case vector.Int64:
		return selVV[D](in.op, dst, p.cand, l, r.Int64s())
	default:
		return selVV[D](in.op, dst, p.cand, l, r.Float64s())
	}
}

func selVC[D, L num](op opcode, dst, cand []int32, l []L, c D) []int32 {
	k := 0
	switch op {
	case opLT:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) < c)
		}
	case opLE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) <= c)
		}
	case opGT:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) > c)
		}
	case opGE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) >= c)
		}
	case opEQ:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) == c)
		}
	case opNE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) != c)
		}
	}
	return dst[:k]
}

func selVV[D, L, R num](op opcode, dst, cand []int32, l []L, r []R) []int32 {
	k := 0
	switch op {
	case opLT:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) < D(r[i]))
		}
	case opLE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) <= D(r[i]))
		}
	case opGT:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) > D(r[i]))
		}
	case opGE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) >= D(r[i]))
		}
	case opEQ:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) == D(r[i]))
		}
	case opNE:
		for _, i := range cand {
			dst[k] = i
			k += b2i(D(l[i]) != D(r[i]))
		}
	}
	return dst[:k]
}

func toScaled[L num](out []int64, l []L, scale float64) {
	for i, x := range l {
		out[i] = int64(math.Round(float64(x) * scale))
	}
}

func inSorted[L int32 | int64](out []bool, l []L, set []int64) {
	for i, x := range l {
		_, out[i] = slices.BinarySearch(set, int64(x))
	}
}

// --- CASE ---

// branch returns a CASE branch's register, or nil for a literal branch.
func (p *Program) branch(r int32) *vector.Vec {
	if r < 0 {
		return nil
	}
	return p.regs[r]
}

// blend is CASE as a typed blend: out[i] takes the then-branch where w[i],
// the else-branch otherwise. A literal branch (nil vector) is read from its
// immediate and never materialized; which kind each branch is does not change
// inside the loop, so those tests cost a predicted branch.
func blend[T any](out []T, w []bool, tv, ev *vector.Vec, tc, ec T, vals func(*vector.Vec) []T) {
	var t, e []T
	if tv != nil {
		t = vals(tv)
	}
	if ev != nil {
		e = vals(ev)
	}
	for i, c := range w {
		switch {
		case c && tv != nil:
			out[i] = t[i]
		case c:
			out[i] = tc
		case ev != nil:
			out[i] = e[i]
		default:
			out[i] = ec
		}
	}
}

// strBlend is blend over strings, appending each chosen value to the
// output's arena.
func (p *Program) strBlend(in *prim, w []bool) {
	tv, ev, out := p.branch(in.b), p.branch(in.c), p.dst(in.out, 0)
	for i, c := range w {
		s := in.y.s
		switch {
		case c && tv != nil:
			s = tv.StrAt(i)
		case c:
			s = in.x.s
		case ev != nil:
			s = ev.StrAt(i)
		}
		out.AppendString(s)
	}
}

// --- string predicates ---

// strPred evaluates the primitive's scalar string test over v. Over a code
// vector it runs once per dictionary entry and maps the verdicts through the
// codes — no string materialization, no per-row test.
func (p *Program) strPred(in *prim, v *vector.Vec, out []bool) {
	if !v.IsDict() {
		for i := range out {
			out[i] = in.pred(v.StrAt(i))
		}
		return
	}
	verdicts := in.verdictsOf(v)
	for i, c := range v.DictCodes() {
		out[i] = verdicts[c]
	}
}

// verdictsOf returns the test's verdict on every value of code vector v's
// dictionary, kept for as long as vectors arrive with the same dictionary.
func (in *prim) verdictsOf(v *vector.Vec) []bool {
	if d := v.Dict(); d != in.dict {
		in.dict, in.verdicts = d, in.verdicts[:0]
		for _, s := range d.Values {
			in.verdicts = append(in.verdicts, in.pred(s))
		}
	}
	return in.verdicts
}

// likePred prepares a LIKE pattern: the pieces between % wildcards and
// whether the ends are anchored.
func likePred(pattern string, negate bool) func(string) bool {
	anchoredL := !strings.HasPrefix(pattern, "%")
	anchoredR := !strings.HasSuffix(pattern, "%")
	var pieces []string
	for _, p := range strings.Split(pattern, "%") {
		if p != "" {
			pieces = append(pieces, p)
		}
	}
	return func(s string) bool { return likeMatch(s, pieces, anchoredL, anchoredR) != negate }
}

func likeMatch(s string, pieces []string, anchoredL, anchoredR bool) bool {
	if len(pieces) == 0 {
		// All wildcards, or — both ends anchored — the empty pattern, which
		// only the empty string matches.
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
