package plan

import (
	"testing"

	"vectorh/internal/vector"
)

type cat struct{}

func (cat) TableSchema(name string) (vector.Schema, error) {
	return vector.Schema{
		{Name: "k", Type: vector.TInt64},
		{Name: "d", Type: vector.TDate},
		{Name: "price", Type: vector.TDecimal},
		{Name: "name", Type: vector.TString},
	}, nil
}

func TestScanSchemaProjection(t *testing.T) {
	s, err := Scan("t", "name", "k").Schema(cat{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].Name != "name" || s[1].Type != vector.TInt64 {
		t.Fatalf("schema = %v", s)
	}
	if _, err := Scan("t", "ghost").Schema(cat{}); err == nil {
		t.Fatal("unknown column should fail")
	}
	full, _ := Scan("t").Schema(cat{})
	if len(full) != 4 {
		t.Fatalf("full schema = %v", full)
	}
	// A filter passes its child's schema through.
	if s, err := Filter(Scan("t"), GE(Col("d"), Date("1995-06-01"))).Schema(cat{}); err != nil || len(s) != 4 {
		t.Fatalf("filter schema = %v err=%v", s, err)
	}
}

func TestProjectSchemaTypes(t *testing.T) {
	p := Project(Scan("t"),
		As("x", Mul(Dec("price"), Float(2))),
		As("y", Year(Col("d"))),
		C("k"))
	s, err := p.Schema(cat{})
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Type != vector.TFloat64 || s[1].Type.Kind != vector.Int32 || s[2].Type != vector.TInt64 {
		t.Fatalf("schema = %v", s)
	}
}

func TestAggregateSchema(t *testing.T) {
	a := Aggregate(Scan("t"), []string{"name"},
		A("s", Sum, Dec("price")),
		A("c", CountStar, Expr{}),
		A("m", Avg, Col("k")),
		A("d", CountDistinct, Col("k")))
	s, err := a.Schema(cat{})
	if err != nil {
		t.Fatal(err)
	}
	want := []vector.Type{vector.TString, vector.TFloat64, vector.TInt64, vector.TFloat64, vector.TInt64}
	for i, w := range want {
		if s[i].Type != w {
			t.Fatalf("col %d type = %v, want %v", i, s[i].Type, w)
		}
	}
}

func TestJoinSchemas(t *testing.T) {
	inner := Join(InnerJoin, Scan("t", "k"), Scan("t", "name"), []string{"k"}, []string{"name"})
	s, err := inner.Schema(cat{})
	if err != nil || len(s) != 2 {
		t.Fatalf("inner schema = %v err=%v", s, err)
	}
	outer := Join(LeftOuterJoin, Scan("t", "k"), Scan("t", "name"), []string{"k"}, []string{"name"})
	s, _ = outer.Schema(cat{})
	if len(s) != 3 || s[2].Name != MatchedCol {
		t.Fatalf("outer schema = %v", s)
	}
	semi := Join(SemiJoin, Scan("t", "k"), Scan("t", "name"), []string{"k"}, []string{"name"})
	s, _ = semi.Schema(cat{})
	if len(s) != 1 {
		t.Fatalf("semi schema = %v", s)
	}
}

func TestExprBindErrors(t *testing.T) {
	schema, _ := cat{}.TableSchema("t")
	if _, err := Col("nope").Bind(schema); err == nil {
		t.Fatal("unknown column should fail to bind")
	}
	if _, err := Add(Col("k"), Col("nope")).Bind(schema); err == nil {
		t.Fatal("nested unknown column should fail")
	}
	e, err := Between(Col("d"), Date("1995-01-01"), DateOffset("1995-01-01", 2)).Bind(schema)
	if err != nil || e == nil {
		t.Fatalf("between bind: %v", err)
	}
}

func TestOrderByAndLimitSchemas(t *testing.T) {
	o := Top(Scan("t", "k"), 5, Desc(Col("k")))
	if o.Limit != 5 || o.Keys[0].Desc != true {
		t.Fatalf("top = %+v", o)
	}
	l := Limit(Scan("t", "k"), 3)
	if s, err := l.Schema(cat{}); err != nil || len(s) != 1 {
		t.Fatalf("limit schema = %v err=%v", s, err)
	}
}
