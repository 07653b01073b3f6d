package tpch

import (
	"strings"
	"testing"

	"vectorh/internal/baseline"
	"vectorh/internal/sql"
)

// TestLeftJoinMatchesBaseline: a LEFT JOIN keeps its build side's columns
// when that side returns no rows, hashed or merged. The joins take the build
// columns' kinds from the plan; they used to take them from the first build
// batch, and with none the two hash joins below failed with "column out of
// range". The last statement's join merges co-located partitions.
func TestLeftJoinMatchesBaseline(t *testing.T) {
	d := Generate(0.001, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	base := baseline.New(baseline.Hive)
	if err := LoadIntoBaseline(base, d); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, join string }{
		{`select n_name, r_name from nation left join region on n_regionkey = r_regionkey and r_name = 'NOPE'
			order by n_name limit 3`, "HashJoin[1,"},
		{`select c_custkey, count(o_orderkey) as n from customer left join orders on c_custkey = o_custkey and o_totalprice < 0
			group by c_custkey order by c_custkey limit 3`, "HashJoin[1,"},
		{`select o_orderkey, count(l_linenumber) as n from orders left join lineitem on o_orderkey = l_orderkey and l_quantity < 0
			group by o_orderkey order by o_orderkey limit 3`, "MergeJoin[1,co-located]"},
	} {
		ex, err := db.ExplainSQL(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !strings.Contains(ex, c.join) {
			t.Fatalf("%s: plan has no %s:\n%s", c.sql, c.join, ex)
		}
		got, err := db.QuerySQL(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		p, err := sql.Compile(c.sql, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Query(p)
		if err != nil {
			t.Fatal(err)
		}
		g, w := strings.Join(renderRows(got), "\n"), strings.Join(renderRows(want), "\n")
		if g != w {
			t.Errorf("%s: engine and baseline differ at %s", c.sql, firstDiff(g, w))
		}
	}
}
