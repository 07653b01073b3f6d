package expr

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/vector"
)

// --- generated trees, built twice: as an Expr and as its reference twin ---

type pair struct {
	e Expr
	r refExpr
}

// gen draws tree shapes from a byte string (the fuzzer's, or random bytes)
// and batch values from a generator seeded by the same bytes. An exhausted
// byte string yields zeros, which pick leaves, so every tree is finite.
type gen struct {
	data []byte
	rng  *rand.Rand
	pool map[vector.Kind][]pair // sub-trees already built, for sharing
}

func newGen(data []byte) *gen {
	h := fnv.New64a()
	h.Write(data)
	return &gen{data: data, rng: rand.New(rand.NewSource(int64(h.Sum64()))), pool: map[vector.Kind][]pair{}}
}

func (g *gen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

// The test batch layout: two columns of every numeric kind, a plain and a
// dictionary-coded string column, a bool column.
const (
	cI32, cI64, cF64, cStr, cDict, cBool, cI32b, cI64b, cF64b = 0, 1, 2, 3, 4, 5, 6, 7, 8
)

var (
	vocab    = []string{"", "apple", "apricot", "banana", "cherry", "MAIL", "SHIP", "regular deposits", "forest green metallic", "13-345-678"}
	patterns = []string{"%green%", "ap%", "%s", "banana", "%regular%deposits", "%", "", "a%e", "%forest%blue%"}
	floats   = []float64{0, math.Copysign(0, -1), 1, -1, 0.05, 0.01, 100, 1e308, -1e308, math.NaN(), math.Inf(1), math.Inf(-1), 24.5, 1.0 / 3}
	ints     = []int64{0, 1, -1, 2, 5, 24, 100, 8766, 9131, 1 << 31, -(1 << 31) - 1, 1 << 40, math.MaxInt64, math.MinInt64}
)

func col(idx int, k vector.Kind) pair { return pair{Col(idx, k), refCol(idx, k)} }

func (g *gen) intList() []int64 {
	out := make([]int64, 1+g.pick(4))
	for i := range out {
		out[i] = ints[g.pick(len(ints))]
	}
	return out
}

// of builds a well-typed tree of kind k and depth at most d.
func (g *gen) of(k vector.Kind, d int) pair {
	if shared := g.pool[k]; len(shared) > 0 && g.pick(5) == 0 {
		return shared[g.pick(len(shared))]
	}
	p := g.build(k, d)
	g.pool[k] = append(g.pool[k], p)
	return p
}

func (g *gen) num(d int) pair {
	return g.of([]vector.Kind{vector.Int32, vector.Int64, vector.Float64}[g.pick(3)], d)
}

func (g *gen) integer(d int) pair {
	return g.of([]vector.Kind{vector.Int32, vector.Int64}[g.pick(2)], d)
}

func (g *gen) kase(k vector.Kind, d int) pair {
	w, t, e := g.of(vector.Bool, d-1), g.of(k, d-1), g.of(k, d-1)
	return pair{Case(w.e, t.e, e.e), refCase(w.r, t.r, e.r)}
}

func (g *gen) build(k vector.Kind, d int) pair {
	choice := 0
	if d > 0 {
		choice = g.pick(8)
	}
	switch k {
	case vector.Int32:
		switch choice {
		case 0, 1:
			return col([]int{cI32, cI32b}[g.pick(2)], vector.Int32)
		case 2:
			v := int32(ints[g.pick(10)])
			return pair{ConstInt32(v), refConstInt32(v)}
		case 3, 4:
			a := g.of(vector.Int32, d-1)
			return pair{Year(a.e), refYear(a.r)}
		case 5, 6:
			a := g.integer(d - 1)
			return pair{CastInt32(a.e), refCastInt32(a.r)}
		default:
			return g.kase(k, d)
		}
	case vector.Int64:
		switch choice {
		case 0:
			return col([]int{cI64, cI64b}[g.pick(2)], vector.Int64)
		case 1:
			v := ints[g.pick(len(ints))]
			return pair{ConstInt64(v), refConstInt64(v)}
		case 2, 3, 4:
			a, b := g.integer(d-1), g.integer(d-1)
			switch g.pick(3) {
			case 0:
				return pair{Add(a.e, b.e), refAdd(a.r, b.r)}
			case 1:
				return pair{Sub(a.e, b.e), refSub(a.r, b.r)}
			default:
				return pair{Mul(a.e, b.e), refMul(a.r, b.r)}
			}
		case 5:
			a := g.num(d - 1)
			return pair{ToScaledInt64(a.e, 100), refToScaledInt64(a.r, 100)}
		case 6:
			a := g.integer(d - 1)
			return pair{CastInt64(a.e), refCastInt64(a.r)}
		default:
			return g.kase(k, d)
		}
	case vector.Float64:
		switch choice {
		case 0:
			return col([]int{cF64, cF64b}[g.pick(2)], vector.Float64)
		case 1:
			v := floats[g.pick(len(floats))]
			return pair{ConstFloat(v), refConstFloat(v)}
		case 2, 3, 4:
			// Float arithmetic: at least one float side, or a division.
			a, b := g.num(d-1), g.of(vector.Float64, d-1)
			if g.pick(2) == 0 {
				a, b = b, a
			}
			switch g.pick(5) {
			case 0:
				return pair{Add(a.e, b.e), refAdd(a.r, b.r)}
			case 1:
				return pair{Sub(a.e, b.e), refSub(a.r, b.r)}
			case 2:
				return pair{Mul(a.e, b.e), refMul(a.r, b.r)}
			case 3:
				return pair{Div(a.e, b.e), refDiv(a.r, b.r)}
			default:
				a, b = g.integer(d-1), g.integer(d-1)
				return pair{Div(a.e, b.e), refDiv(a.r, b.r)}
			}
		case 5, 6:
			a, f := g.num(d-1), []float64{0.01, 100, -0.5}[g.pick(3)]
			return pair{Scaled(a.e, f), refScaled(a.r, f)}
		default:
			return g.kase(k, d)
		}
	case vector.String:
		switch choice {
		case 0, 1, 2:
			return col([]int{cStr, cDict}[g.pick(2)], vector.String)
		case 3:
			v := vocab[g.pick(len(vocab))]
			return pair{ConstStr(v), refConstStr(v)}
		case 4, 5:
			a, start, length := g.of(vector.String, d-1), 1+g.pick(12), g.pick(12)
			return pair{Substr(a.e, start, length), refSubstr(a.r, start, length)}
		default:
			return g.kase(k, d)
		}
	default: // Bool
		switch choice {
		case 0:
			if g.pick(4) == 0 {
				v := g.pick(2) == 0
				return pair{ConstBool(v), refConstBool(v)}
			}
			return col(cBool, vector.Bool)
		case 1, 2, 3:
			a, b := g.num(d-1), g.num(d-1)
			if g.pick(4) == 0 {
				a, b = g.of(vector.String, d-1), g.of(vector.String, d-1)
			}
			switch g.pick(6) {
			case 0:
				return pair{LT(a.e, b.e), refLT(a.r, b.r)}
			case 1:
				return pair{LE(a.e, b.e), refLE(a.r, b.r)}
			case 2:
				return pair{GT(a.e, b.e), refGT(a.r, b.r)}
			case 3:
				return pair{GE(a.e, b.e), refGE(a.r, b.r)}
			case 4:
				return pair{EQ(a.e, b.e), refEQ(a.r, b.r)}
			default:
				return pair{NE(a.e, b.e), refNE(a.r, b.r)}
			}
		case 4:
			a, b := g.of(vector.Bool, d-1), g.of(vector.Bool, d-1)
			switch g.pick(3) {
			case 0:
				return pair{And(a.e, b.e), refAnd(a.r, b.r)}
			case 1:
				return pair{Or(a.e, b.e), refOr(a.r, b.r)}
			default:
				return pair{Not(a.e), refNot(a.r)}
			}
		case 5:
			a, pat := g.of(vector.String, d-1), patterns[g.pick(len(patterns))]
			if g.pick(2) == 0 {
				return pair{NotLike(a.e, pat), refNotLike(a.r, pat)}
			}
			return pair{Like(a.e, pat), refLike(a.r, pat)}
		case 6:
			if g.pick(2) == 0 {
				a, list := g.integer(d-1), g.intList()
				return pair{InInt64(a.e, list...), refInInt64(a.r, list...)}
			}
			a, list := g.of(vector.String, d-1), []string{vocab[g.pick(len(vocab))], vocab[g.pick(len(vocab))], "nope"}
			return pair{InStr(a.e, list...), refInStr(a.r, list...)}
		default:
			if g.pick(2) == 0 {
				a, lo, hi := g.num(d-1), g.num(d-1), g.num(d-1)
				return pair{Between(a.e, lo.e, hi.e), refBetween(a.r, lo.r, hi.r)}
			}
			return g.kase(k, d)
		}
	}
}

// batchSpec describes a batch so that each evaluator gets its own copy: the
// reference materializes dictionary vectors in place, which must not change
// what the program sees.
type batchSpec struct {
	rows int
	sel  []int32 // nil: no selection
	seed int64
}

func (s batchSpec) make() *vector.Batch {
	rng := rand.New(rand.NewSource(s.seed))
	n := s.rows
	i32, i32b := make([]int32, n), make([]int32, n)
	i64, i64b := make([]int64, n), make([]int64, n)
	f64, f64b := make([]float64, n), make([]float64, n)
	str, codes, bools := make([]string, n), make([]uint32, n), make([]bool, n)
	f := func() float64 {
		if rng.Intn(4) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return float64(rng.Intn(20000)-10000) / 100
	}
	i := func() int64 {
		if rng.Intn(8) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return int64(rng.Intn(12000) - 1000)
	}
	for r := 0; r < n; r++ {
		i32[r], i32b[r] = int32(i()), int32(rng.Intn(60))
		i64[r], i64b[r] = i(), int64(rng.Intn(11))
		f64[r], f64b[r] = f(), f()
		str[r], codes[r], bools[r] = vocab[rng.Intn(len(vocab))], uint32(rng.Intn(len(vocab))), rng.Intn(2) == 0
	}
	b := vector.NewBatch(vector.FromInt32(i32), vector.FromInt64(i64), vector.FromFloat64(f64),
		vector.FromString(str), vector.FromDictCodes(codes, &compress.StrDict{Values: vocab}), vector.FromBool(bools),
		vector.FromInt32(i32b), vector.FromInt64(i64b), vector.FromFloat64(f64b))
	b.Sel = s.sel
	return b
}

func (g *gen) batch() batchSpec {
	s := batchSpec{rows: []int{1024, 1, 7, 0, 300}[g.pick(5)], seed: g.rng.Int63()}
	switch c := g.pick(5); c {
	case 1, 3: // sparse selection; shuffled, not increasing, in case 3
		s.sel = []int32{}
		for r := g.rng.Intn(3); r < s.rows; r += 1 + g.rng.Intn(5) {
			s.sel = append(s.sel, int32(r))
		}
		if c == 3 {
			g.rng.Shuffle(len(s.sel), func(i, j int) { s.sel[i], s.sel[j] = s.sel[j], s.sel[i] })
		}
	case 2: // empty selection
		s.sel = []int32{}
	}
	return s
}

// sameVec compares two result vectors value for value; floats by bit
// pattern, so -0 ≠ +0 and 1 ulp is a failure. Any NaN equals any NaN: which
// payload an operation on two NaNs propagates depends on the operand order
// the compiler picks for a commutative instruction, which Go does not define.
func sameVec(got, want *vector.Vec) error {
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		return fmt.Errorf("got %v×%d, want %v×%d", got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.Get(i), want.Get(i)
		if gf, ok := g.(float64); ok {
			wf := w.(float64)
			if math.Float64bits(gf) != math.Float64bits(wf) && !(math.IsNaN(gf) && math.IsNaN(wf)) {
				return fmt.Errorf("row %d: got %v (%#x), want %v (%#x)", i, gf, math.Float64bits(gf), wf, math.Float64bits(wf))
			}
		} else if g != w {
			return fmt.Errorf("row %d: got %v, want %v", i, g, w)
		}
	}
	return nil
}

// checkAgainstReference is the differential oracle: a few trees from one
// generator, evaluated over one batch by the reference interpreter, by one
// Program compiled from all of them (twice, to exercise register reuse), by
// one-shot Eval, and — for predicates — by the selection-producing Filter.
func checkAgainstReference(t *testing.T, data []byte) {
	g := newGen(data)
	spec := g.batch()
	var trees []pair
	for i, n := 0, 1+g.pick(4); i < n; i++ {
		k := []vector.Kind{vector.Bool, vector.Float64, vector.Int64, vector.Int32, vector.String}[g.pick(5)]
		trees = append(trees, g.of(k, 1+g.pick(5)))
	}
	want := make([]*vector.Vec, len(trees))
	var wantErr error
	exprs := make([]Expr, len(trees))
	for i, tr := range trees {
		exprs[i] = tr.e
		v, err := tr.r.Eval(spec.make())
		if err != nil && wantErr == nil {
			wantErr = err
		}
		want[i] = v
	}
	describe := func() string {
		return fmt.Sprintf("exprs %v over %d rows, sel %v, seed %d", exprs, spec.rows, spec.sel != nil, spec.seed)
	}
	prog, err := Compile(exprs...)
	if err != nil {
		t.Fatalf("Compile: %v (%s)", err, describe())
	}
	for round := 0; round < 2; round++ {
		err := prog.Run(spec.make())
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Run error %v, reference error %v (%s)\n%s", err, wantErr, describe(), prog)
		}
		for i := range trees {
			if err != nil {
				break
			}
			if err := sameVec(prog.Out(i), want[i]); err != nil {
				t.Fatalf("Run round %d output %d: %v (%s)\n%s", round, i, err, describe(), prog)
			}
		}
	}
	for _, tr := range trees {
		refV, refErr := tr.r.Eval(spec.make())
		v, err := tr.e.Eval(spec.make())
		if (err != nil) != (refErr != nil) {
			t.Fatalf("Eval(%s) error %v, reference error %v (%s)", tr.e, err, refErr, describe())
		}
		if err == nil {
			if err := sameVec(v, refV); err != nil {
				t.Fatalf("Eval(%s): %v (%s)", tr.e, err, describe())
			}
		}
		if tr.e.Kind() != vector.Bool {
			continue
		}
		f, err := CompileFilter(tr.e)
		if err != nil {
			t.Fatalf("CompileFilter(%s): %v", tr.e, err)
		}
		for round := 0; round < 2; round++ {
			b := spec.make()
			out, err := f.Select(b)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("Select(%s) error %v, reference error %v (%s)\n%s", tr.e, err, refErr, describe(), f)
			}
			if err != nil {
				break
			}
			wantSel := SelFromBool(refV, b)
			var gotSel []int32
			switch {
			case out == nil:
			case out == b: // everything qualified
				gotSel = SelFromBool(vector.Const(vector.Bool, true, b.Len()), b)
			default:
				gotSel = out.Sel
			}
			if fmt.Sprint(gotSel) != fmt.Sprint(wantSel) {
				t.Fatalf("Select(%s) = %v, want %v (%s)\n%s", tr.e, gotSel, wantSel, describe(), f)
			}
		}
	}
}

func TestProgramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 3000
	if testing.Short() {
		n = 400
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}

func FuzzExprProgram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x01\x05\x03\x02\x04\x01\x00\x03\x02\x01\x01\x04\x02"))
	f.Add([]byte("\x02\x02\x03\x00\x05\x07\x01\x03\x06\x02\x04\x05\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add([]byte("\x04\x01\x00\x04\x05\x05\x01\x02\x03\x01\x06\x00\x07\x07\x07\x02\x01\x03\x02\x05\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip()
		}
		checkAgainstReference(t, data)
	})
}

// TestScaledCompareIsAnIntegerCut holds scaledCut to the float comparison it
// replaces, at the cut point it finds, next to it and at the int64 limits.
func TestScaledCompareIsAnIntegerCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []float64{0.01, 100, 3.7, 1e-300, 1e300, 0.5} {
		for _, c := range []float64{0.05, 24, -12.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			92233720368547760, 1e19, -1e19, 1e-310, rng.NormFloat64() * 1e6} {
			for _, op := range []opcode{opLT, opLE, opGT, opGE} {
				cop, cut, ok := scaledCut(op, f, c)
				if !ok {
					t.Fatalf("scaledCut(%s, %g, %g) declined", opNames[op], f, c)
				}
				xs := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64, rng.Int63(), -rng.Int63()}
				for d := int64(-2); d <= 2; d++ {
					xs = append(xs, cut.i+d)
				}
				for _, x := range xs {
					if want, got := cmpOne(op, float64(x)*f, c), cmpOne(cop, x, cut.i); got != want {
						t.Fatalf("%d*%g %s %g is %v, the cut %s %d says %v", x, f, opNames[op], c, want, opNames[cop], cut.i, got)
					}
				}
			}
		}
	}
	for _, op := range []opcode{opEQ, opNE} {
		if _, _, ok := scaledCut(op, 0.01, 5); ok {
			t.Errorf("scaledCut(%s) cut an interval", opNames[op])
		}
	}
}

// --- compile-time errors ---

func TestCompileErrorsNameTheSubExpression(t *testing.T) {
	i64, str, f64 := Col(0, vector.Int64), Col(1, vector.String), Col(2, vector.Float64)
	for _, c := range []struct {
		e    Expr
		want string
	}{
		{Mul(ConstFloat(2), Add(str, ConstInt64(1))), "arithmetic on string/int64 in ($1 + 1)"},
		{Case(GT(i64, ConstInt64(0)), f64, i64), "CASE branches float64 vs int64 in case("},
		{Case(i64, f64, f64), "CASE condition is int64"},
		{Like(i64, "%x%"), `like on int64 in like($0,"%x%")`},
		{InStr(f64, "a"), "in on float64"},
		{InInt64(f64, 1), "in on float64"},
		{Substr(i64, 1, 2), "substr on int64 in substr($0,1,2)"},
		{Year(i64), "year on int64 in year($0)"},
		{And(i64, ConstBool(true)), "boolean op on int64 in ($0 and true)"},
		{LT(str, i64), "compare string with int64 in ($1 < $0)"},
		{EQ(Col(3, vector.Bool), ConstBool(true)), "compare bool with bool"},
		{Scaled(str, 0.01), "scaled on string"},
		{CastInt32(f64), "int32 on float64"},
	} {
		_, err := Compile(ConstInt64(1), c.e)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%s) = %v, want an error containing %q", c.e, err, c.want)
		}
	}
	if _, err := CompileFilter(Add(i64, ConstInt64(1))); err == nil || !strings.Contains(err.Error(), "not bool") {
		t.Errorf("CompileFilter(non-bool) = %v", err)
	}
	if _, err := CompileFilter(And(GT(i64, ConstInt64(0)), Like(i64, "x"))); err == nil {
		t.Error("CompileFilter must report errors inside conjuncts")
	}
}

func TestSubstrBoundsAreOverflowSafe(t *testing.T) {
	b := vector.NewBatch(vector.FromString([]string{"13-345-678", "x", ""}))
	for _, c := range []struct {
		start, length int
		want          string
	}{
		{0, 2, "[13 x ]"}, {-5, 1, "[1 x ]"}, {2, math.MaxInt, "[3-345-678  ]"},
		{math.MaxInt, math.MaxInt, "[  ]"}, {3, -1, "[  ]"}, {math.MinInt, math.MaxInt, "[13-345-678 x ]"},
	} {
		v, err := Substr(Col(0, vector.String), c.start, c.length).Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(v.Strings()); got != c.want {
			t.Errorf("substr(%d,%d) = %s, want %s", c.start, c.length, got, c.want)
		}
	}
}

// --- the workloads the issue measures: Q01's aggregate inputs, S3's projection ---

// lineitem-shaped batch: quantity, extendedprice, discount, tax (scaled
// int64), returnflag, linestatus, shipmode (dictionary codes), shipdate.
const (
	lQty, lPrice, lDisc, lTax, lFlag, lStatus, lMode, lDate = 0, 1, 2, 3, 4, 5, 6, 7
)

func lineitemBatch(n int, seed int64) *vector.Batch {
	rng := rand.New(rand.NewSource(seed))
	qty, price, disc, tax := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	flag, status, mode, date := make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		qty[i], price[i], disc[i], tax[i] = int64(100*(1+rng.Intn(50))), int64(90000+rng.Intn(9000000)), int64(rng.Intn(11)), int64(rng.Intn(9))
		flag[i], status[i], mode[i], date[i] = uint32(rng.Intn(3)), uint32(rng.Intn(2)), uint32(rng.Intn(7)), int32(8036+rng.Intn(2500))
	}
	return vector.NewBatch(vector.FromInt64(qty), vector.FromInt64(price), vector.FromInt64(disc), vector.FromInt64(tax),
		vector.FromDictCodes(flag, &compress.StrDict{Values: []string{"A", "N", "R"}}),
		vector.FromDictCodes(status, &compress.StrDict{Values: []string{"F", "O"}}),
		vector.FromDictCodes(mode, &compress.StrDict{Values: []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}}),
		vector.FromInt32(date))
}

func dec(idx int) Expr { return Scaled(Col(idx, vector.Int64), 0.01) }

// q01Exprs is what Q01's partial aggregate evaluates per batch: two keys and
// the arguments of its eleven aggregates (AVG is SUM and COUNT; COUNT(*) has
// no argument). Each call builds fresh trees, as binding does.
func q01Exprs() []Expr {
	discPrice := func() Expr { return Mul(dec(lPrice), Sub(ConstFloat(1), dec(lDisc))) }
	charge := Mul(discPrice(), Add(ConstFloat(1), dec(lTax)))
	return []Expr{Col(lFlag, vector.String), Col(lStatus, vector.String),
		dec(lQty), dec(lPrice), discPrice(), charge, dec(lQty), dec(lQty), dec(lPrice), dec(lPrice), dec(lDisc), dec(lDisc)}
}

// s3Exprs is the projection under S3's aggregate.
func s3Exprs() []Expr {
	return []Expr{Col(lMode, vector.String), Year(Col(lDate, vector.Int32)),
		Case(GT(dec(lDisc), ConstFloat(0.05)), Mul(dec(lPrice), Sub(ConstFloat(1), dec(lDisc))), ConstFloat(0)),
		Mul(dec(lQty), dec(lTax))}
}

func TestDisassemblyQ01(t *testing.T) {
	p, err := Compile(q01Exprs()...)
	if err != nil {
		t.Fatal(err)
	}
	const want = `r3 = mul.f64 $0:i64, 0.01
r5 = mul.f64 $1:i64, 0.01
r7 = mul.f64 $2:i64, 0.01
r8 = sub.f64 1, r7
r9 = mul.f64 r5, r8
r11 = mul.f64 $3:i64, 0.01
r12 = add.f64 1, r11
r13 = mul.f64 r9, r12
out $4:str, $5:str, r3, r5, r9, r13, r3, r3, r5, r5, r7, r7
`
	if got := p.String(); got != want {
		t.Errorf("Q01 program:\n%s\nwant:\n%s", got, want)
	}
	if p.NumPrims() != 8 {
		t.Errorf("Q01's twelve expressions compile to %d primitives, want 8", p.NumPrims())
	}
	s3, err := Compile(s3Exprs()...)
	if err != nil {
		t.Fatal(err)
	}
	if s3.NumPrims() != 10 || !strings.Contains(s3.String(), "= case.f64 r") || !strings.Contains(s3.String(), ", 0\n") {
		t.Errorf("S3 projection: %d primitives, want 10 with a literal CASE branch:\n%s", s3.NumPrims(), s3)
	}
	f, err := CompileFilter(And(And(GE(Col(lDate, vector.Int32), ConstInt32(8766)), LT(dec(lQty), ConstInt64(24))),
		Or(Like(Col(lMode, vector.String), "%AIR"), EQ(Col(lFlag, vector.String), ConstStr("R")))))
	if err != nil {
		t.Fatal(err)
	}
	// scaled(qty, 0.01) < 24 is the integer compare qty <= 2399 on storage
	// units; the OR is the one conjunct evaluated into a bool register.
	const wantFilter = `sel = ge.i64 $7:i32, 8766
sel = le.i64 $0:i64, 2399
r3 = like.bool $6:str, "%AIR", negate=false
r5 = eq.str $4:str, "R"
r6 = or.bool r3, r5
sel = true.bool r6
`
	if got := f.String(); got != wantFilter {
		t.Errorf("filter program:\n%s\nwant:\n%s", got, wantFilter)
	}
}

func TestWarmProgramsDoNotAllocate(t *testing.T) {
	b := lineitemBatch(1024, 1)
	sel := lineitemBatch(1024, 2)
	for i := 0; i < 1024; i += 3 {
		sel.Sel = append(sel.Sel, int32(i))
	}
	for name, exprs := range map[string][]Expr{"q01 keys+args": q01Exprs(), "s3 case and qty*tax": s3Exprs()[2:]} {
		p, err := Compile(exprs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []*vector.Batch{b, sel} {
			if err := p.Run(batch); err != nil { // warm: registers sized
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() { _ = p.Run(batch) }); allocs != 0 {
				t.Errorf("%s: warm Run allocates %v objects per batch (sel=%v), want 0", name, allocs, batch.Sel != nil)
			}
		}
	}
	f, err := CompileFilter(And(GE(Col(lDate, vector.Int32), ConstInt32(8766)), Like(Col(lMode, vector.String), "%AIR")))
	if err != nil {
		t.Fatal(err)
	}
	f.Select(b)
	// The selection vector and the batch header leave the operator: 2.
	if allocs := testing.AllocsPerRun(50, func() { f.Select(b) }); allocs > 2 {
		t.Errorf("warm Select allocates %v objects per batch, want the output's 2", allocs)
	}
}

// TestEvalSharedExprConcurrently pins that an Expr is immutable: one-shot
// Eval from many goroutines on one shared tree (run under -race).
func TestEvalSharedExprConcurrently(t *testing.T) {
	e := q01Exprs()[5]
	want, err := e.Eval(lineitemBatch(1024, 3))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := e.Eval(lineitemBatch(1024, 3))
				if err == nil {
					err = sameVec(got, want)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEvalResultBelongsToCaller(t *testing.T) {
	e, b := q01Exprs()[4], lineitemBatch(64, 4)
	first, _ := e.Eval(b)
	keep := append([]float64(nil), first.Float64s()...)
	if _, err := e.Eval(lineitemBatch(64, 5)); err != nil {
		t.Fatal(err)
	}
	for i, x := range first.Float64s() {
		if x != keep[i] {
			t.Fatalf("an earlier Eval result changed at row %d after the next Eval", i)
		}
	}
}

// --- benchmarks ---

var sink int

func BenchmarkExprProgram(b *testing.B) {
	batch := lineitemBatch(1024, 7)
	values := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
	}
	for _, c := range []struct {
		name  string
		exprs []Expr
	}{
		{"q01_args", q01Exprs()},
		{"s3_project", s3Exprs()},
		{"like", []Expr{Like(Col(lMode, vector.String), "%AIR%")}},
		{"case_blend", []Expr{Case(GT(Col(lDisc, vector.Int64), ConstInt64(5)), dec(lPrice), ConstFloat(0))}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile(c.exprs...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Run(batch); err != nil {
					b.Fatal(err)
				}
			}
			values(b, batch.Len())
		})
	}
	// Filter.Match under a sparse selection (every third row): a selection
	// primitive reads the batch's own vectors at the candidates, so nothing
	// is gathered and nothing allocated. The IN reads dictionary codes, the
	// LIKE plain strings (column 8), the compare passes half the rows.
	sparse := lineitemBatch(1024, 8)
	words := []string{"carefully", "regular", "deposits", "furiously", "ironic", "packages", "quickly", "final", "requests"}
	comments, rng := make([]string, 1024), rand.New(rand.NewSource(8))
	for i := range comments {
		comments[i] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
	}
	sparse.Vecs = append(sparse.Vecs, vector.FromString(comments))
	for i := int32(0); i < 1024; i += 3 {
		sparse.Sel = append(sparse.Sel, i)
	}
	for _, c := range []struct {
		name string
		pred Expr
	}{
		{"in_codes_sel", InStr(Col(lMode, vector.String), "MAIL", "SHIP", "RAIL")},
		{"like_sel", Like(Col(8, vector.String), "%regular%")},
		{"cmp50_sel", LT(Col(lDate, vector.Int32), ConstInt32(8036+1250))},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, err := CompileFilter(c.pred)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := f.Match(sparse, sparse.Len())
				if err != nil {
					b.Fatal(err)
				}
				sink += len(out)
			}
			values(b, sparse.Len())
		})
	}
	b.Run("cmp_and_sel", func(b *testing.B) {
		f, err := CompileFilter(And(GE(Col(lDate, vector.Int32), ConstInt32(8766)), LT(Col(lDate, vector.Int32), ConstInt32(9131))))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := f.Select(batch)
			if err != nil {
				b.Fatal(err)
			}
			sink += out.Len()
		}
		values(b, batch.Len())
	})
}
