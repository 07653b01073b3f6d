package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorh/internal/vector"
)

func TestBoundsGolden(t *testing.T) {
	i64, i32, f64, str := Col(0, vector.Int64), Col(1, vector.Int32), Col(2, vector.Float64), Col(3, vector.String)
	dec := Scaled(i64, 0.01)
	for _, c := range []struct {
		e    Expr
		want string // "col in interval" per bound, '!' appended when exact
	}{
		{LT(i64, ConstInt64(5)), "$0 in [min,4]!"},
		{LE(ConstInt64(5), i64), "$0 in [5,max]!"},
		{GT(i32, ConstInt32(18276)), "$1 in [18277,max]!"},
		{EQ(i64, ConstInt64(7)), "$0 in [7,7]!"},
		{GT(i64, ConstInt64(math.MaxInt64)), "$0 in [9223372036854775807,-9223372036854775808]!"},
		{LT(i64, ConstInt64(math.MinInt64)), "$0 in [9223372036854775807,-9223372036854775808]!"},
		{And(GE(i64, ConstInt64(5)), LT(i64, ConstInt64(10))), "$0 in [5,9]!"},
		{And(GT(i64, ConstInt64(50)), EQ(i64, ConstInt64(50))), "$0 in [51,50]!"},
		{And(GE(i64, ConstInt64(5)), LT(i32, ConstInt32(10))), "$0 in [5,max] $1 in [min,9]"},
		{And(GE(i64, ConstInt64(5)), Like(str, "%x%")), "$0 in [5,max]"},
		{InInt64(i64, 3, 1, 2), "$0 in [1,3]"},
		// Float-compared integer storage: slack, saturation, never exact.
		{LT(dec, ConstFloat(24)), "$0 in [min,2401]"},
		{Between(dec, ConstFloat(0.05), ConstFloat(0.07)), "$0 in [4,8]"},
		{LT(dec, ConstFloat(1e20)), "$0 in [min,max]"},
		{GT(dec, ConstFloat(-1e20)), "$0 in [min,max]"},
		{LE(dec, ConstFloat(92233720368547758.07)), "$0 in [min,max]"},
		{GT(dec, ConstFloat(1e20)), "$0 in [9223372036854775807,max]"},
		{LT(i64, ConstFloat(2.5)), "$0 in [min,3]"},
		{GE(f64, ConstInt64(10)), "$2 in [10,max]"},
		{And(GT(f64, ConstFloat(50)), EQ(f64, ConstFloat(50))), "$2 in [50,50]"},
		{EQ(str, ConstStr("n")), `$3 in ["n","n"]`},
		{GT(ConstStr("n"), str), `$3 in [min,"n"]`},
		{InStr(str, "b", "a", "c"), `$3 in ["a","c"]`},
		{Like(str, "ab%"), `$3 in ["ab","ac"]`},
		{Like(str, "ab%cd%"), `$3 in ["ab","ac"]`},
		{Like(str, "ab"), `$3 in ["ab","ab"]`},
		{Like(str, ""), `$3 in [min,""]`},
		{Like(str, "a\xff%"), `$3 in ["a\xff","b"]`},
		{Like(str, "\xff%"), `$3 in ["\xff",max]`},
		// Nothing is implied by these, or nothing this function derives.
		{Like(str, "%ab"), ""},
		{Like(str, "%"), ""},
		{NotLike(str, "ab%"), ""},
		{NE(i64, ConstInt64(5)), ""},
		{LT(i64, i32), ""},
		{Or(LT(i64, ConstInt64(5)), GT(i64, ConstInt64(9))), ""},
		{Not(LT(i64, ConstInt64(5))), ""},
		{GT(Add(i64, ConstInt64(1)), ConstInt64(12)), ""},
		{LT(f64, ConstFloat(math.NaN())), ""},
		{LT(Scaled(i64, -1), ConstFloat(3)), ""},
		{LE(Scaled(i64, 1e300), ConstFloat(math.Inf(-1))), ""}, // holds where the product overflows
		{ConstBool(true), ""},
	} {
		got := ""
		for i, b := range Bounds(c.e) {
			if i > 0 {
				got += " "
			}
			got += fmt.Sprintf("$%d in %s", b.Col, b)
			if b.Exact {
				got += "!"
			}
		}
		if got != c.want {
			t.Errorf("Bounds(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestSelectivity(t *testing.T) {
	i64, date, f64, str := Col(0, vector.Int64), Col(1, vector.Int32), Col(2, vector.Float64), Col(3, vector.String)
	dec, unranged := Scaled(Col(4, vector.Int64), 0.01), Col(5, vector.Int64)
	ranges := map[int][2]int64{0: {0, 99}, 1: {1000, 1999}, 4: {0, 9999}}
	colRange := func(col int) (int64, int64, bool) {
		r, ok := ranges[col]
		return r[0], r[1], ok
	}
	for _, c := range []struct {
		name string
		e    Expr
		want float64
	}{
		{"half range", GE(i64, ConstInt64(10)), 0.9},
		{"point", EQ(i64, ConstInt64(7)), 0.01},
		{"between", Between(i64, ConstInt64(10), ConstInt64(19)), 0.1},
		{">= and <=", And(GE(i64, ConstInt64(10)), LE(i64, ConstInt64(19))), 0.1},
		{"one column intersects", And(GE(i64, ConstInt64(10)), LT(i64, ConstInt64(20))), 0.1},
		{"written apart", And(And(GE(i64, ConstInt64(10)), LT(date, ConstInt32(1100))), LT(i64, ConstInt64(20))), 0.01},
		{"two columns multiply", And(LT(i64, ConstInt64(50)), LT(date, ConstInt32(1100))), 0.05},
		{"in envelope", InInt64(i64, 19, 10, 14), 0.1},
		{"float column", GT(f64, ConstFloat(1)), 1.0 / 3},
		{"per conjunct", And(Like(str, "a%"), GT(f64, ConstFloat(1))), 1.0 / 9},
		{"bounds nothing", NE(i64, ConstInt64(5)), 1.0 / 3},
		{"no range", LT(unranged, ConstInt64(5)), 1.0 / 3},
		{"ranged and not", And(LT(i64, ConstInt64(50)), Or(EQ(i64, ConstInt64(1)), EQ(i64, ConstInt64(2)))), 0.5 / 3},
		{"decimal storage units", LT(dec, ConstFloat(25)), 2502.0 / 10000},
		{"decimal between", Between(dec, ConstFloat(0.05), ConstFloat(0.07)), 5.0 / 10000},
		{"empty intersection", And(GT(i64, ConstInt64(50)), LT(i64, ConstInt64(40))), 0},
		{"outside the range", And(GT(i64, ConstInt64(200)), Like(str, "a%")), 0},
		{"covers the range", GE(date, ConstInt32(0)), 1},
	} {
		if got := Selectivity(c.e, colRange); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Selectivity(%s) = %v, want %v", c.name, c.e, got, c.want)
		}
	}
	if got := Selectivity(And(LT(i64, ConstInt64(50)), GT(f64, ConstFloat(1))), nil); math.Abs(got-1.0/9) > 1e-12 {
		t.Errorf("no column ranges: Selectivity = %v, want 1/9", got)
	}
}

func TestConjunctsAndColumns(t *testing.T) {
	a, b, c := LT(Col(2, vector.Int64), ConstInt64(1)), Like(Col(0, vector.String), "x%"), Or(ConstBool(true), LT(Col(2, vector.Int64), Col(1, vector.Int64)))
	got := Conjuncts(And(And(a, b), And(c, a)))
	if !slices.Equal(got, []Expr{a, b, c, a}) {
		t.Fatalf("Conjuncts = %v", got)
	}
	if cols := Columns(And(c, b)); !slices.Equal(cols, []int{0, 1, 2}) {
		t.Fatalf("Columns = %v", cols)
	}
}

// inside reports whether value i of v lies in the bound's interval.
func inside(b Bound, v *vector.Vec, i int) bool {
	switch v.Kind() {
	case vector.Int32:
		return b.Kind == vector.Int64 && int64(v.Int32s()[i]) >= b.IntLo && int64(v.Int32s()[i]) <= b.IntHi
	case vector.Int64:
		return b.Kind == vector.Int64 && v.Int64s()[i] >= b.IntLo && v.Int64s()[i] <= b.IntHi
	case vector.Float64:
		return b.Kind == vector.Float64 && v.Float64s()[i] >= b.FloatLo && v.Float64s()[i] <= b.FloatHi
	default:
		s := v.Strings()[i]
		return b.Kind == vector.String && s >= b.StrLo && (!b.HasStrHi || s <= b.StrHi)
	}
}

// boundsCase is one generated conjunct over column 0 of one kind, and the
// values to hold its bounds against.
type boundsCase struct {
	kind, shape, shape2 uint8
	litI                int64
	litF, factor        float64
	litS                string
	valI                int64
	valF                float64
	valS                string
}

func (c boundsCase) colKind() vector.Kind {
	return [...]vector.Kind{vector.Int32, vector.Int64, vector.Float64, vector.String}[c.kind%4]
}

// conjunct builds one non-AND predicate from a shape byte: bits 0-2 the
// comparison, bit 3 literal on the left, bits 4-5 the form (plain, scaled or
// float literal, IN, LIKE), with the literal nudged by delta.
func (c boundsCase) conjunct(shape uint8, delta int64) Expr {
	kind := c.colKind()
	col := Col(0, kind)
	cmp := [...]func(l, r Expr) Expr{LT, LE, GT, GE, EQ, NE}[shape&7%6]
	form := shape >> 4 & 3
	var subject, lit Expr = col, nil
	switch {
	case kind == vector.String:
		switch form {
		case 2:
			return InStr(col, c.litS, c.valS, c.litS+"m")
		case 3:
			return Like(col, c.litS)
		}
		lit = ConstStr(c.litS)
	case kind == vector.Float64:
		if lit = ConstFloat(c.litF + float64(delta)); form == 1 {
			lit = ConstInt64(c.litI + delta)
		}
	default:
		switch form {
		case 1:
			subject, lit = Scaled(col, c.factor), ConstFloat(c.litF+float64(delta))
		case 2:
			return InInt64(col, c.litI, c.litI+delta, c.valI)
		case 3:
			lit = ConstFloat(c.litF + float64(delta))
		default:
			if lit = ConstInt64(c.litI + delta); kind == vector.Int32 {
				lit = ConstInt32(int32(c.litI + delta))
			}
		}
	}
	if shape&8 != 0 {
		return cmp(lit, subject)
	}
	return cmp(subject, lit)
}

// values is the column the bounds are held against: the case's own value and
// the neighbourhood of every literal, where an off-by-one or a lost rounding
// would show.
func (c boundsCase) values() *vector.Vec {
	ints := []int64{c.valI, 0, math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32}
	near := func(x float64) {
		if x >= -0x1p63 && x < 0x1p63 {
			for d := int64(-3); d <= 3; d++ {
				ints = append(ints, int64(x)+d)
			}
		}
	}
	near(float64(c.litI))
	near(c.litF)
	near(c.litF / c.factor)
	near(float64(c.litI) / c.factor)
	switch kind := c.colKind(); kind {
	case vector.Int32:
		out := make([]int32, len(ints))
		for i, x := range ints {
			out[i] = int32(x)
		}
		return vector.FromInt32(out)
	case vector.Int64:
		return vector.FromInt64(ints)
	case vector.Float64:
		fs := []float64{c.valF, c.litF, math.Nextafter(c.litF, math.Inf(1)), math.Nextafter(c.litF, math.Inf(-1)),
			float64(c.litI), float64(c.litI) + 0.5, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
		return vector.FromFloat64(fs)
	default:
		prefix, _, _ := strings.Cut(c.litS, "%")
		ss := []string{c.valS, c.litS, c.litS + "\x00", prefix, prefix + "\xff\xff", prefix + "a", "", "\xff", c.litS + "m"}
		if n := len(prefix) - 1; n >= 0 {
			ss = append(ss, prefix[:n], prefix[:n]+string([]byte{prefix[n] + 1}), prefix[:n]+string([]byte{prefix[n] - 1})+"\xff")
		}
		return vector.FromString(ss)
	}
}

// check holds Bounds to its contract on one case: a value satisfying the
// predicate lies inside every derived bound, and a value inside an exact bound
// satisfies the predicate.
func (c boundsCase) check(t *testing.T) {
	e := c.conjunct(c.shape, 0)
	if c.shape&0x40 != 0 {
		e = And(e, c.conjunct(c.shape2, int64(c.shape2>>6)))
	}
	if c.shape&0x80 != 0 {
		e = And(c.conjunct(c.shape2>>1, -1), e)
	}
	f, err := CompileFilter(e)
	if err != nil {
		return // ill-typed: nothing to hold
	}
	vals := c.values()
	match, err := f.Match(vector.NewBatch(vals), vals.Len())
	if err != nil {
		t.Fatal(err)
	}
	bounds := Bounds(e)
	if len(bounds) > 1 {
		t.Fatalf("Bounds(%s) = %v: more than one bound for one column", e, bounds)
	}
	for _, b := range bounds {
		for i := 0; i < vals.Len(); i++ {
			_, holds := slices.BinarySearch(match, int32(i))
			switch in := inside(b, vals, i); {
			case holds && !in:
				t.Fatalf("%s holds for %v, outside its bound %s", e, vals.Get(i), b)
			case b.Exact && in && !holds:
				t.Fatalf("%s does not hold for %v, inside its exact bound %s", e, vals.Get(i), b)
			}
		}
	}
}

var boundsLits = []float64{0, 1, -1, 0.05, 0.07, 24, 2.5, -12.5, 1e20, -1e20, 92233720368547758.07, 92233720368547760,
	-92233720368547760, 0x1p63, -0x1p63, 0x1p53 + 2, 1e300, 5e-324, math.Inf(1), math.Inf(-1), math.MaxInt32, math.MinInt32}
var boundsInts = []int64{0, 1, -1, 50, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, 1 << 53, 1<<53 + 1, 9131}
var boundsFactors = []float64{0.01, 1, 0.5, 100, 1e-9, 3, 1e300, 1e-300}
var boundsStrs = []string{"", "a", "ab", "ab%", "%ab", "a%b", "a%b%c", "%", "%%", "\xff", "\xff%", "a\xff%", "north", "nor%", "n"}

// TestBoundsNeverLoseARow runs the contract over a seeded sweep that leans on
// the places bounds go wrong: literals at and past the int64 and int32 limits,
// above 2⁵³, scale factors far from 1, prefixes ending in 0xff.
func TestBoundsNeverLoseARow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pick := func(n int) int { return r.Intn(n) }
	for i := 0; i < 20000; i++ {
		c := boundsCase{
			kind: uint8(pick(4)), shape: uint8(pick(256)), shape2: uint8(pick(256)),
			litI: boundsInts[pick(len(boundsInts))], litF: boundsLits[pick(len(boundsLits))],
			factor: boundsFactors[pick(len(boundsFactors))], litS: boundsStrs[pick(len(boundsStrs))],
			valI: boundsInts[pick(len(boundsInts))] + int64(pick(5)) - 2, valF: boundsLits[pick(len(boundsLits))],
			valS: boundsStrs[pick(len(boundsStrs))],
		}
		if pick(3) == 0 {
			c.litI, c.valI = r.Int63()-r.Int63(), r.Int63()-r.Int63()
			c.litF, c.valF = r.NormFloat64()*1e6, r.NormFloat64()*1e6
		}
		c.check(t)
	}
}

func FuzzScanBounds(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(0), int64(5), 2.5, 0.01, "ab%", int64(4), 2.5, "abc")
	f.Add(uint8(1), uint8(0x10), uint8(0), int64(0), 1e20, 0.01, "", int64(math.MaxInt64), 0.0, "")
	f.Add(uint8(1), uint8(0x12), uint8(0), int64(0), -1e20, 0.01, "", int64(math.MinInt64), 0.0, "")
	f.Add(uint8(1), uint8(0x42), uint8(4), int64(50), 50.0, 1.0, "n", int64(50), 50.0, "n")
	f.Add(uint8(1), uint8(2), uint8(0), int64(math.MaxInt64), 0.0, 1.0, "", int64(math.MaxInt64), 0.0, "")
	f.Add(uint8(0), uint8(0x30), uint8(0), int64(7), 7.5, 1.0, "", int64(8), 0.0, "")
	f.Add(uint8(2), uint8(0x44), uint8(2), int64(50), 50.0, 1.0, "", int64(0), 50.0, "")
	f.Add(uint8(3), uint8(0x30), uint8(0), int64(0), 0.0, 1.0, "", int64(0), 0.0, "a")
	f.Add(uint8(3), uint8(0x30), uint8(0), int64(0), 0.0, 1.0, "a\xff%", int64(0), 0.0, "a\xff\xff")
	f.Add(uint8(3), uint8(0x42), uint8(4), int64(0), 0.0, 1.0, "north", int64(0), 0.0, "north")
	f.Fuzz(func(t *testing.T, kind, shape, shape2 uint8, litI int64, litF, factor float64, litS string, valI int64, valF float64, valS string) {
		if len(litS) > 64 || len(valS) > 64 {
			t.Skip()
		}
		boundsCase{kind: kind, shape: shape, shape2: shape2, litI: litI, litF: litF, factor: factor, litS: litS,
			valI: valI, valF: valF, valS: valS}.check(t)
	})
}

// TestBoundContains holds the test a scan puts to a value a modify sets to
// the bound's closed interval, for each column kind a bound applies to: a
// date's int32 against an integer bound, floats to ±Inf, strings with an
// open end, and no value inside an interval that holds none. A value of no
// summarized kind is inside.
func TestBoundContains(t *testing.T) {
	ints := Bound{Kind: vector.Int64, IntLo: 10, IntHi: 20}
	none := Bound{Kind: vector.Int64, IntLo: 1, IntHi: 0}
	floats := Bound{Kind: vector.Float64, FloatLo: 1.5, FloatHi: math.Inf(1)}
	strs := Bound{Kind: vector.String, StrLo: "B", StrHi: "M", HasStrHi: true}
	openStrs := Bound{Kind: vector.String, StrLo: "B"}
	cases := []struct {
		b    Bound
		v    any
		want bool
	}{
		{ints, int32(10), true},
		{ints, int32(20), true},
		{ints, int32(9), false},
		{ints, int32(21), false},
		{ints, int64(15), true},
		{ints, int64(math.MinInt64), false},
		{ints, int64(math.MaxInt64), false},
		{none, int64(0), false},
		{floats, 1.5, true},
		{floats, math.MaxFloat64, true},
		{floats, 1.4, false},
		{floats, math.Inf(-1), false},
		{strs, "B", true},
		{strs, "M", true},
		{strs, "Ma", false},
		{strs, "A", false},
		{strs, "", false},
		{openStrs, "zzz", true},
		{openStrs, "A", false},
		{ints, nil, true},
	}
	for _, c := range cases {
		if got := c.b.Contains(c.v); got != c.want {
			t.Errorf("%+v contains %#v = %v, want %v", c.b, c.v, got, c.want)
		}
	}
}
