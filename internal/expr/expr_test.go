package expr

import (
	"slices"
	"testing"

	"vectorh/internal/vector"
)

func batch() *vector.Batch {
	return vector.NewBatch(
		vector.FromInt64([]int64{1, 2, 3, 4}),
		vector.FromFloat64([]float64{10, 20, 30, 40}),
		vector.FromString([]string{"apple", "banana", "cherry", "apricot"}),
		vector.FromInt32([]int32{100, 200, 300, 400}),
	)
}

func evalOK(t *testing.T, e Expr, b *vector.Batch) *vector.Vec {
	t.Helper()
	v, err := e.Eval(b)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return v
}

func TestColAndSel(t *testing.T) {
	b := batch()
	v := evalOK(t, Col(0, vector.Int64), b)
	if v.Int64s()[2] != 3 {
		t.Fatalf("col = %v", v.Int64s())
	}
	b.Sel = []int32{3, 1}
	v = evalOK(t, Col(0, vector.Int64), b)
	if v.Len() != 2 || v.Int64s()[0] != 4 || v.Int64s()[1] != 2 {
		t.Fatalf("col with sel = %v", v.Int64s())
	}
	if _, err := Col(9, vector.Int64).Eval(b); err == nil {
		t.Fatal("out of range column should fail")
	}
	if _, err := Col(0, vector.String).Eval(b); err == nil {
		t.Fatal("kind mismatch should fail")
	}
}

func TestArithmeticPromotion(t *testing.T) {
	b := batch()
	v := evalOK(t, Add(Col(0, vector.Int64), ConstInt64(10)), b)
	if v.Kind() != vector.Int64 || v.Int64s()[0] != 11 {
		t.Fatalf("int add = %v", v.Int64s())
	}
	v = evalOK(t, Mul(Col(0, vector.Int64), Col(1, vector.Float64)), b)
	if v.Kind() != vector.Float64 || v.Float64s()[1] != 40 {
		t.Fatalf("mixed mul = %v", v.Float64s())
	}
	v = evalOK(t, Div(Col(0, vector.Int64), ConstInt64(2)), b)
	if v.Kind() != vector.Float64 || v.Float64s()[2] != 1.5 {
		t.Fatalf("div = %v", v.Float64s())
	}
	v = evalOK(t, Sub(Col(3, vector.Int32), ConstInt32(50)), b)
	if v.Kind() != vector.Int64 || v.Int64s()[0] != 50 {
		t.Fatalf("int32 sub = %v", v.Int64s())
	}
	if _, err := Add(Col(2, vector.String), ConstInt64(1)).Eval(b); err == nil {
		t.Fatal("string arithmetic should fail")
	}
}

func TestScaledDecimal(t *testing.T) {
	b := vector.NewBatch(vector.FromInt64([]int64{150, 225})) // cents
	v := evalOK(t, Scaled(Col(0, vector.Int64), 0.01), b)
	if v.Float64s()[0] != 1.5 || v.Float64s()[1] != 2.25 {
		t.Fatalf("scaled = %v", v.Float64s())
	}
}

func TestComparisons(t *testing.T) {
	b := batch()
	cases := []struct {
		e    Expr
		want []bool
	}{
		{LT(Col(0, vector.Int64), ConstInt64(3)), []bool{true, true, false, false}},
		{LE(Col(0, vector.Int64), ConstInt64(3)), []bool{true, true, true, false}},
		{GT(Col(1, vector.Float64), ConstFloat(25)), []bool{false, false, true, true}},
		{GE(Col(3, vector.Int32), ConstInt32(300)), []bool{false, false, true, true}},
		{EQ(Col(2, vector.String), ConstStr("cherry")), []bool{false, false, true, false}},
		{NE(Col(0, vector.Int64), ConstInt64(2)), []bool{true, false, true, true}},
		{EQ(Col(0, vector.Int64), Col(1, vector.Float64)), []bool{false, false, false, false}},
	}
	for _, c := range cases {
		v := evalOK(t, c.e, b)
		got := v.Bools()
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s = %v, want %v", c.e, got, c.want)
			}
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	b := batch()
	e := And(GT(Col(0, vector.Int64), ConstInt64(1)), LT(Col(0, vector.Int64), ConstInt64(4)))
	if got := evalOK(t, e, b).Bools(); !got[1] || !got[2] || got[0] || got[3] {
		t.Fatalf("and = %v", got)
	}
	e = Or(EQ(Col(0, vector.Int64), ConstInt64(1)), EQ(Col(0, vector.Int64), ConstInt64(4)))
	if got := evalOK(t, e, b).Bools(); !got[0] || !got[3] || got[1] {
		t.Fatalf("or = %v", got)
	}
	e = Not(LT(Col(0, vector.Int64), ConstInt64(3)))
	if got := evalOK(t, e, b).Bools(); got[0] || !got[3] {
		t.Fatalf("not = %v", got)
	}
	if _, err := And(Col(0, vector.Int64), ConstBool(true)).Eval(b); err == nil {
		t.Fatal("AND on non-bool should fail")
	}
}

func TestBetween(t *testing.T) {
	b := batch()
	e := Between(Col(0, vector.Int64), ConstInt64(2), ConstInt64(3))
	got := evalOK(t, e, b).Bools()
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("between = %v", got)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	b := vector.NewBatch(vector.FromString([]string{
		"forest green metallic", "green", "light green", "greenish blue", "blue",
	}))
	cases := []struct {
		pattern string
		want    []bool
	}{
		{"%green%", []bool{true, true, true, true, false}},
		{"green%", []bool{false, true, false, true, false}},
		{"%green", []bool{false, true, true, false, false}},
		{"green", []bool{false, true, false, false, false}},
		{"%forest%blue%", []bool{false, false, false, false, false}},
		{"%forest%metallic", []bool{true, false, false, false, false}},
		// A pattern without pieces: all wildcards match everything, the empty
		// pattern matches the empty string only.
		{"%", []bool{true, true, true, true, true}},
		{"%%", []bool{true, true, true, true, true}},
		{"", []bool{false, false, false, false, false}},
	}
	empty := vector.NewBatch(vector.FromString([]string{"", "a"}))
	for _, c := range []struct {
		pattern   string
		like, not []bool
	}{
		{"", []bool{true, false}, []bool{false, true}},
		{"%", []bool{true, true}, []bool{false, false}},
		{"%%", []bool{true, true}, []bool{false, false}},
		{"a", []bool{false, true}, []bool{true, false}},
	} {
		if got := evalOK(t, Like(Col(0, vector.String), c.pattern), empty).Bools(); !slices.Equal(got, c.like) {
			t.Fatalf("['' 'a'] like %q = %v, want %v", c.pattern, got, c.like)
		}
		if got := evalOK(t, NotLike(Col(0, vector.String), c.pattern), empty).Bools(); !slices.Equal(got, c.not) {
			t.Fatalf("['' 'a'] not like %q = %v, want %v", c.pattern, got, c.not)
		}
	}
	for _, c := range cases {
		got := evalOK(t, Like(Col(0, vector.String), c.pattern), b).Bools()
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("like %q = %v, want %v", c.pattern, got, c.want)
			}
		}
		neg := evalOK(t, NotLike(Col(0, vector.String), c.pattern), b).Bools()
		for i := range c.want {
			if neg[i] == c.want[i] {
				t.Fatalf("not like %q = %v", c.pattern, neg)
			}
		}
	}
}

func TestInLists(t *testing.T) {
	b := batch()
	got := evalOK(t, InStr(Col(2, vector.String), "apple", "cherry"), b).Bools()
	if !got[0] || got[1] || !got[2] || got[3] {
		t.Fatalf("in-str = %v", got)
	}
	got = evalOK(t, InInt64(Col(0, vector.Int64), 2, 4), b).Bools()
	if got[0] || !got[1] || got[2] || !got[3] {
		t.Fatalf("in-int = %v", got)
	}
	got = evalOK(t, InInt64(Col(3, vector.Int32), 200), b).Bools()
	if got[0] || !got[1] {
		t.Fatalf("in-int32 = %v", got)
	}
}

func TestSubstr(t *testing.T) {
	b := vector.NewBatch(vector.FromString([]string{"13-345-678", "x", ""}))
	got := evalOK(t, Substr(Col(0, vector.String), 1, 2), b).Strings()
	if got[0] != "13" || got[1] != "x" || got[2] != "" {
		t.Fatalf("substr = %v", got)
	}
}

func TestYear(t *testing.T) {
	b := vector.NewBatch(vector.FromInt32([]int32{
		vector.MustDate("1995-06-15"), vector.MustDate("1996-01-01"),
	}))
	got := evalOK(t, Year(Col(0, vector.Int32)), b).Int32s()
	if got[0] != 1995 || got[1] != 1996 {
		t.Fatalf("year = %v", got)
	}
}

func TestCaseWhen(t *testing.T) {
	b := batch()
	e := Case(GT(Col(0, vector.Int64), ConstInt64(2)), ConstFloat(1), ConstFloat(0))
	got := evalOK(t, e, b).Float64s()
	if got[0] != 0 || got[2] != 1 {
		t.Fatalf("case = %v", got)
	}
	if _, err := Case(ConstBool(true), ConstFloat(1), ConstStr("x")).Eval(b); err == nil {
		t.Fatal("mismatched CASE branches should fail")
	}
}

func TestSelFromBool(t *testing.T) {
	b := batch()
	v := evalOK(t, GT(Col(0, vector.Int64), ConstInt64(2)), b)
	sel := SelFromBool(v, b)
	if len(sel) != 2 || sel[0] != 2 || sel[1] != 3 {
		t.Fatalf("sel = %v", sel)
	}
	// Composition with an existing selection.
	b.Sel = []int32{0, 2, 3}
	v = evalOK(t, GT(Col(0, vector.Int64), ConstInt64(2)), b)
	sel = SelFromBool(v, b)
	if len(sel) != 2 || sel[0] != 2 || sel[1] != 3 {
		t.Fatalf("composed sel = %v", sel)
	}
}

func TestConstEval(t *testing.T) {
	b := batch()
	if v := evalOK(t, ConstStr("x"), b); v.Len() != 4 || v.Strings()[3] != "x" {
		t.Fatal("const string broken")
	}
	if v := evalOK(t, ConstBool(true), b); !v.Bools()[0] {
		t.Fatal("const bool broken")
	}
}
