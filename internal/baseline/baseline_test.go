package baseline

import (
	"fmt"
	"math"
	"testing"

	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

var schema = vector.Schema{
	{Name: "k", Type: vector.TInt64},
	{Name: "g", Type: vector.TString},
	{Name: "v", Type: vector.TFloat64},
}

func loaded(t *testing.T) *Engine {
	t.Helper()
	e := New(Hive)
	b := vector.NewBatchForSchema(schema, 1000)
	for i := 0; i < 1000; i++ {
		b.AppendRow(int64(i), []string{"a", "b"}[i%2], float64(i))
	}
	if err := e.Load("t", schema, b); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScanFilterAggregate(t *testing.T) {
	e := loaded(t)
	q := plan.Aggregate(
		plan.Filter(plan.Scan("t"), plan.LT(plan.Col("k"), plan.Int(100))),
		[]string{"g"},
		plan.A("s", plan.Sum, plan.Col("v")), plan.AStar("n"))
	rows, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[2].(int64) != 50 {
			t.Fatalf("group %v", r)
		}
	}
}

func TestJoinAndOrderBy(t *testing.T) {
	e := loaded(t)
	dim := vector.NewBatchForSchema(vector.Schema{
		{Name: "dk", Type: vector.TString}, {Name: "label", Type: vector.TString},
	}, 2)
	dim.AppendRow("a", "Alpha")
	dim.AppendRow("b", "Beta")
	if err := e.Load("dim", vector.Schema{
		{Name: "dk", Type: vector.TString}, {Name: "label", Type: vector.TString},
	}, dim); err != nil {
		t.Fatal(err)
	}
	q := plan.Top(
		plan.Join(plan.InnerJoin, plan.Scan("t"), plan.Scan("dim"), []string{"g"}, []string{"dk"}),
		3, plan.Desc(plan.Col("k")))
	rows, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].(int64) != 999 || rows[0][4].(string) != "Beta" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestOrderByNaNFirst: the oracle orders floats as the engine does, NaN
// before every other value, and the other values stay sorted around it.
func TestOrderByNaNFirst(t *testing.T) {
	e := New(Hive)
	b := vector.NewBatchForSchema(schema, 5)
	for i, v := range []float64{2, 1, math.NaN(), 0, -1} {
		b.AppendRow(int64(i), "a", v)
	}
	if err := e.Load("t", schema, b); err != nil {
		t.Fatal(err)
	}
	rows, err := e.Query(plan.OrderBy(plan.Scan("t"), plan.Asc(plan.Col("v"))))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, r := range rows {
		got = append(got, r[2].(float64))
	}
	if s := fmt.Sprint(got); s != "[NaN -1 0 1 2]" {
		t.Fatalf("order by v = %s", s)
	}
}

func TestHiveDeltaMergeInScans(t *testing.T) {
	e := loaded(t)
	nb := vector.NewBatchForSchema(schema, 2)
	nb.AppendRow(int64(5000), "a", 1.0)
	nb.AppendRow(int64(5001), "b", 2.0)
	if err := e.InsertRows("t", nb); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteByKey("t", []int64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	rows, err := e.Query(plan.Scan("t", "k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000+2-3 {
		t.Fatalf("rows = %d", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].(int64)] = true
	}
	if seen[0] || seen[2] || !seen[5000] || !seen[5001] {
		t.Fatal("delta merge wrong")
	}
}

func TestSemiAntiOuterJoins(t *testing.T) {
	e := loaded(t)
	sub := vector.NewBatchForSchema(vector.Schema{{Name: "sk", Type: vector.TInt64}}, 3)
	sub.AppendRow(int64(1))
	sub.AppendRow(int64(2))
	sub.AppendRow(int64(99999))
	e.Load("sub", vector.Schema{{Name: "sk", Type: vector.TInt64}}, sub)
	semi, err := e.Query(plan.Join(plan.SemiJoin, plan.Scan("t", "k"), plan.Scan("sub"), []string{"k"}, []string{"sk"}))
	if err != nil || len(semi) != 2 {
		t.Fatalf("semi = %d err=%v", len(semi), err)
	}
	anti, err := e.Query(plan.Join(plan.AntiJoin, plan.Scan("t", "k"), plan.Scan("sub"), []string{"k"}, []string{"sk"}))
	if err != nil || len(anti) != 998 {
		t.Fatalf("anti = %d err=%v", len(anti), err)
	}
	outer, err := e.Query(plan.Join(plan.LeftOuterJoin, plan.Scan("sub"), plan.Scan("t", "k"), []string{"sk"}, []string{"k"}))
	if err != nil || len(outer) != 3 {
		t.Fatalf("outer = %d err=%v", len(outer), err)
	}
	unmatched := 0
	for _, r := range outer {
		if !r[len(r)-1].(bool) {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Fatalf("unmatched = %d", unmatched)
	}
}
