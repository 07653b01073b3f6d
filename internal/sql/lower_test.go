package sql

import (
	"strings"
	"testing"

	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// fakeCat is a minimal plan.Catalog for binder tests.
type fakeCat map[string]vector.Schema

func (c fakeCat) TableSchema(name string) (vector.Schema, error) {
	if s, ok := c[name]; ok {
		return s, nil
	}
	return nil, errf(Pos{}, "no table %q", name)
}

func testCat() fakeCat {
	return fakeCat{
		"t": vector.Schema{
			{Name: "id", Type: vector.TInt64},
			{Name: "a", Type: vector.TInt64},
			{Name: "b", Type: vector.TFloat64},
			{Name: "s", Type: vector.TString},
			{Name: "d", Type: vector.TDate},
			{Name: "m", Type: vector.TDecimal},
		},
		"u": vector.Schema{
			{Name: "id", Type: vector.TInt64},
			{Name: "label", Type: vector.TString},
		},
	}
}

// TestLowerErrors locks binder error messages and positions.
func TestLowerErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select a from nosuch", `1:15: unknown table "nosuch"`},
		{"select zzz from t", `1:8: unknown column "zzz"`},
		{"select id from t join u on t.id = u.id", `1:8: ambiguous column "id"`},
		{"select t.zzz from t", `1:8: table "t" has no column "zzz"`},
		{"select q.a from t", `1:8: unknown table alias "q"`},
		{"select a from t where sum(a) > 1", `1:23: aggregate sum() is only allowed in the select list`},
		{"select a from t join u on a > 1", `needs at least one equality condition`},
		{"select a from t group by zzz", `1:26: GROUP BY "zzz" is neither a column nor a select alias`},
		{"select a, b from t group by a", `1:11: column "b" must appear in GROUP BY or inside an aggregate`},
		{"select sum(sum(a)) from t", `1:12: aggregate sum() is only allowed in the select list`},
		{"select a from t join t on t.id = t.id", `1:22: duplicate table alias "t"`},
		{"select * from t group by a", `SELECT * cannot be combined with GROUP BY`},
		{"select a from t order by nope", `1:26: unknown column "nope"`},
		{"select a from t where d >= 'not a date'", `1:25: cannot compare int32:date with string`},
		{"select s + 1 from t", `1:10: operator "+" is not defined on strings`},
		{"select case when a = 1 then s else 2 end from t", `1:8: CASE branches mix string and int64`},
		{"select s from t where s in (1, 2)", `1:25: IN list of integers against string`},
		{"select a from t where a in ('x')", `1:25: IN list of strings against int64`},
		{"select a from t order by 3", `1:26: ORDER BY position 3 is out of range (1..1)`},
		{"select s, count(*) from t group by s order by sum(a)",
			`1:47: aggregate sum(a) in ORDER BY must also appear in the select list`},
		{"select a from t where exists (select * from u)",
			`1:23: EXISTS subquery must be correlated with the outer query (inner_col = outer_col)`},
		{"select exists (select * from u) from t",
			`1:8: EXISTS is only supported as a top-level WHERE conjunct`},
		{"select a from t where a > (select max(id) from u) or b > 1",
			`1:27: scalar subquery is only supported in top-level AND conjuncts`},
		{"select a from t where a in (select id, label from u)",
			`1:25: IN subquery must select exactly one column`},
		{"select a from t where a + 1 in (select id from u)",
			`1:25: IN (SELECT ...) requires a plain column on the left`},
		{"select a from t where a > (select id from u)",
			`1:27: scalar subquery must compute an aggregate`},
		{"select s, count(*) from t group by s having exists (select * from u where id = t.id)",
			`1:45: EXISTS and IN subqueries are not supported in HAVING`},
		{"select a from t having a > 1",
			`1:26: HAVING requires GROUP BY or an aggregate`},
		{"select a from t where s in (select id from u)",
			`subquery column (int64) and outer column s (string) have incompatible types`},
		{"select substring(a from 1 for 2) from t",
			`1:8: SUBSTRING requires a string argument`},
		{"select substring(s from 0 for 2) from t",
			`1:8: SUBSTRING start must be at least 1, got 0`},
		{"select a from t where substring(s from 0 for 2) = 'x'",
			`1:23: SUBSTRING start must be at least 1, got 0`},
		{"select year(a) from t", `1:8: year() requires a date argument, got int64`},
		{"select s, max(a) from t group by s order by year(max(a))",
			`1:45: year() requires a date argument, got int64`},
	}
	cat := testCat()
	for _, c := range cases {
		_, err := Compile(c.in, cat)
		if err == nil {
			t.Errorf("Compile(%q): expected error %q, got none", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q)\n got  %v\n want substring %q", c.in, err, c.want)
		}
	}
}

// TestLowerShapes checks the emitted logical plan shapes and output schemas.
func TestLowerShapes(t *testing.T) {
	cat := testCat()

	// Bare star: plain scan of every column, no projection.
	n, err := Compile("select * from t", cat)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := n.(*plan.ScanNode)
	if !ok {
		t.Fatalf("select * lowered to %T, want *plan.ScanNode", n)
	}
	if len(scan.Cols) != 6 {
		t.Fatalf("star scan has %d cols, want 6", len(scan.Cols))
	}

	// Column pruning: only referenced columns survive into the scan.
	n, err = Compile("select a from t where b > 1.5", cat)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := n.(*plan.ProjectNode)
	if !ok {
		t.Fatalf("got %T, want projection on top", n)
	}
	filter, ok := proj.Child.(*plan.FilterNode)
	if !ok {
		t.Fatalf("projection child is %T, want *plan.FilterNode", proj.Child)
	}
	scan = filter.Child.(*plan.ScanNode)
	if len(scan.Cols) != 2 { // a and b
		t.Fatalf("pruned scan has cols %v, want [a b]", scan.Cols)
	}

	// Join with mixed ON: equality becomes keys, the rest residual.
	n, err = Compile(
		"select a, label from t join u on t.id = u.id and label <> 'x'", cat)
	if err != nil {
		t.Fatal(err)
	}
	join := n.(*plan.ProjectNode).Child.(*plan.JoinNode)
	if len(join.LeftKeys) != 1 || join.LeftKeys[0] != "id" || join.RightKeys[0] != "id" {
		t.Fatalf("join keys %v=%v, want id=id", join.LeftKeys, join.RightKeys)
	}
	if join.ExtraPred == nil {
		t.Fatal("expected residual join predicate")
	}

	// Aggregation with select-list order == natural output: no projection.
	n, err = Compile(
		"select s, sum(b) as total, count(*) as n from t group by s order by total desc limit 3", cat)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := n.(*plan.OrderByNode)
	if !ok || top.Limit != 3 {
		t.Fatalf("got %T (limit?), want TopN", n)
	}
	agg, ok := top.Child.(*plan.AggregateNode)
	if !ok {
		t.Fatalf("TopN child is %T, want *plan.AggregateNode (no post-projection)", top.Child)
	}
	if len(agg.GroupBy) != 1 || agg.GroupBy[0] != "s" || len(agg.Aggs) != 2 {
		t.Fatalf("aggregate shape: groupBy=%v aggs=%d", agg.GroupBy, len(agg.Aggs))
	}
	schema, err := n.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s", "total", "n"}
	for i, f := range schema {
		if f.Name != want[i] {
			t.Fatalf("output schema %v, want %v", schema.Names(), want)
		}
	}
	if schema[1].Type != vector.TFloat64 || schema[2].Type != vector.TInt64 {
		t.Fatalf("output types %v/%v, want float64/int64", schema[1].Type, schema[2].Type)
	}

	// GROUP BY on a computed alias inserts a pre-projection.
	n, err = Compile(
		"select year(d) as y, count(*) as n from t group by y", cat)
	if err != nil {
		t.Fatal(err)
	}
	agg = n.(*plan.AggregateNode)
	if _, ok := agg.Child.(*plan.ProjectNode); !ok {
		t.Fatalf("aggregate child is %T, want pre-projection", agg.Child)
	}
	if agg.GroupBy[0] != "y" {
		t.Fatalf("group by %v, want [y]", agg.GroupBy)
	}

	// Qualified refs to a duplicated name: the first occurrence keeps its
	// name, later value-read occurrences get a physical rename (u_id) so
	// both sides stay addressable in the join output.
	if _, err := Compile("select t.id from t join u on t.id = u.id", cat); err != nil {
		t.Fatalf("t.id (first occurrence) should bind: %v", err)
	}
	n, err = Compile("select u.id from t join u on t.id = u.id", cat)
	if err != nil {
		t.Fatalf("u.id should bind via a physical rename: %v", err)
	}
	pr, ok := n.(*plan.ProjectNode)
	if !ok {
		t.Fatalf("top node is %T, want a projection reading the renamed column", n)
	}
	if got := pr.Exprs[0].Expr.Name; got != "u_id" || pr.Exprs[0].Name != "id" {
		t.Fatalf("u.id lowered as %s := Col(%s), want id := Col(u_id)", pr.Exprs[0].Name, got)
	}

	// ORDER BY ordinal selects the n-th output column.
	n, err = Compile("select s, a from t order by 2 desc", cat)
	if err != nil {
		t.Fatal(err)
	}
	ob := n.(*plan.OrderByNode)
	if ob.Keys[0].Expr.Name != "a" || !ob.Keys[0].Desc {
		t.Fatalf("ordinal key = %q desc=%v, want a desc", ob.Keys[0].Expr.Name, ob.Keys[0].Desc)
	}

	// ORDER BY on an unaliased select-list aggregate resolves by text.
	if _, err := Compile("select s, sum(a) from t group by s order by sum(a) desc", cat); err != nil {
		t.Fatalf("order by select-list aggregate: %v", err)
	}

	// min/max keep their argument's type; sum still widens int32.
	n, err = Compile("select max(d) as hi, min(d) as lo, sum(year(d)) as ys from t", cat)
	if err != nil {
		t.Fatal(err)
	}
	if schema, err = n.Schema(cat); err != nil {
		t.Fatal(err)
	}
	if schema[0].Type != vector.TDate || schema[1].Type != vector.TDate || schema[2].Type != vector.TInt64 {
		t.Fatalf("max/min/sum types %v, want date, date, int64", schema)
	}

	// IN over a float/decimal subject expands to an equality chain.
	if _, err := Compile("select count(*) from t where m in (10, 20)", cat); err != nil {
		t.Fatalf("IN over decimal: %v", err)
	}

	// Decimal columns: raw when projected bare, scaled inside expressions.
	n, err = Compile("select m, sum(m) as sm from t group by m", cat)
	if err != nil {
		t.Fatal(err)
	}
	schema, err = n.Schema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if schema[0].Type != vector.TDecimal {
		t.Fatalf("bare group decimal type %v, want decimal", schema[0].Type)
	}
	if schema[1].Type != vector.TFloat64 {
		t.Fatalf("sum(decimal) type %v, want float64", schema[1].Type)
	}
}
