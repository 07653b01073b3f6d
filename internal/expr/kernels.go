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
				out[i] = cmpStr(in.op, l.StrAt(i), r.StrAt(i))
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
	case opSelTrue:
		ok, out := p.regs[in.a].Bools(), p.selBuf[:0]
		for _, r := range p.cand {
			if ok[r] {
				out = append(out, r)
			}
		}
		p.cand = out
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
	case in.sel:
		p.cand = selVC(in.op, p.selBuf, p.cand, l, c)
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

// selVC is the selection-producing comparison with a literal: it keeps the
// candidates that satisfy it, writing into dst — which may be the candidate
// list's own buffer, since the write index never passes the read index.
func selVC[D, L num](op opcode, dst, cand []int32, l []L, c D) []int32 {
	k := 0
	keep := func(i int32, ok bool) {
		if ok {
			dst[k] = i
			k++
		}
	}
	switch op {
	case opLT:
		for _, i := range cand {
			keep(i, D(l[i]) < c)
		}
	case opLE:
		for _, i := range cand {
			keep(i, D(l[i]) <= c)
		}
	case opGT:
		for _, i := range cand {
			keep(i, D(l[i]) > c)
		}
	case opGE:
		for _, i := range cand {
			keep(i, D(l[i]) >= c)
		}
	case opEQ:
		for _, i := range cand {
			keep(i, D(l[i]) == c)
		}
	case opNE:
		for _, i := range cand {
			keep(i, D(l[i]) != c)
		}
	}
	return dst[:k]
}

// cmpStr applies one comparison to a pair of strings (per value, or once per
// dictionary entry).
func cmpStr(op opcode, a, b string) bool {
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
// codes — no string materialization, no per-row test; the verdicts are kept
// for as long as batches arrive with the same dictionary.
func (p *Program) strPred(in *prim, v *vector.Vec, out []bool) {
	if !v.IsDict() {
		for i := range out {
			out[i] = in.pred(v.StrAt(i))
		}
		return
	}
	if d := v.Dict(); d != in.dict {
		in.dict, in.verdicts = d, in.verdicts[:0]
		for _, s := range d.Values {
			in.verdicts = append(in.verdicts, in.pred(s))
		}
	}
	for i, c := range v.DictCodes() {
		out[i] = in.verdicts[c]
	}
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
