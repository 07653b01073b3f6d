package tpch

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vectorh"
	"vectorh/internal/colstore"
)

func newDB(t *testing.T) *vectorh.DB {
	t.Helper()
	db, err := vectorh.Open(vectorh.Config{
		Nodes:          []string{"n1", "n2", "n3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSQLExplain sanity-checks that compiled SQL goes through the parallel
// rewriting (exchanges present) and that MinMax skip hints survive lowering
// into the scans.
func TestSQLExplain(t *testing.T) {
	d := Generate(0.002, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	ex, err := db.ExplainSQL(SQLQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Xchg", "HashJoin", "Scan"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain lacks %q:\n%s", want, ex)
		}
	}
	// Q3's o_orderdate range predicate must reach the orders scan as a
	// MinMax skip hint (rendered as part of the scan operator line).
	if !strings.Contains(ex, "orders") {
		t.Errorf("explain lacks orders scan:\n%s", ex)
	}
}

// TestExplainShowsProgramSizes pins what the compiler makes of the two
// expression-heaviest statements of the benchmark: Q01's partial aggregate
// evaluates two keys and eleven aggregates over five distinct expressions in
// 8 primitives (4 decimal conversions, 1-disc, 1+tax, two multiplies), and the
// projection under S3's aggregate takes 10. A missed shared sub-expression or
// a constant that is broadcast instead of folded into a kernel moves these
// numbers, in EXPLAIN, without a profiler.
func TestExplainShowsProgramSizes(t *testing.T) {
	d := Generate(0.002, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	const s3 = `select l_shipmode, year(l_shipdate) as ship_year,
	       sum(case when l_discount > 0.05 then l_extendedprice * (1 - l_discount) else 0 end) as disc_revenue,
	       sum(l_quantity * l_tax) as qty_tax
	from lineitem
	group by l_shipmode, ship_year`
	for _, c := range []struct{ name, sql, want string }{
		{"Q01", SQLQueries[1], "Aggr(partial)[2 keys,6 aggs,8 prims]"},
		{"S3", s3, "Project[4 exprs,10 prims]"},
	} {
		ex, err := db.ExplainSQL(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex, c.want) {
			t.Errorf("%s: explain lacks %q:\n%s", c.name, c.want, ex)
		}
	}
}

// TestGroupByClusteredKeyOverReorderedDerivedTable groups on lineitem's
// clustered key over a derived table that sorts on another column, with and
// without LIMIT: the derived table's rows are no longer in l_orderkey order,
// so every order must still come out as exactly one group.
func TestGroupByClusteredKeyOverReorderedDerivedTable(t *testing.T) {
	d := Generate(0.002, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from         string
		rows, groups int
	}{
		{"(select l_orderkey as k, l_partkey as p from lineitem order by p limit 1000) t", 1000, -1},
		{"(select l_orderkey as k, l_partkey as p from lineitem order by p) t", d.Tables["lineitem"].Len(), d.Tables["orders"].Len()},
	} {
		q := "select k, count(*) as n from " + c.from + " group by k"
		rows, err := db.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		seen := make(map[int64]bool, len(rows))
		total := 0
		for _, r := range rows {
			k := r[0].(int64)
			if seen[k] {
				t.Fatalf("%s: order %d forms two groups", q, k)
			}
			seen[k] = true
			total += int(r[1].(int64))
		}
		if total != c.rows || (c.groups >= 0 && len(rows) != c.groups) {
			t.Fatalf("%s: %d groups over %d rows, want %d groups over %d rows", q, len(rows), total, c.groups, c.rows)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden and testdata/answers.golden (whichever test runs)")

// benchStmts are the non-TPC-H statement texts of bench/stmts.go (scan_agg's
// S3/S4, wide_result's W1–W4), copied because bench/ is a nested module.
var benchStmts = []struct{ name, sql string }{
	{"S3", `select l_shipmode, year(l_shipdate) as ship_year,
	       sum(case when l_discount > 0.05 then l_extendedprice * (1 - l_discount) else 0 end) as disc_revenue,
	       sum(l_quantity * l_tax) as qty_tax
	from lineitem
	group by l_shipmode, ship_year`},
	{"S4", `select l_shipmode, count(*) as n, sum(l_extendedprice) as price
	from lineitem
	where l_comment like '%regular%' and l_shipmode in ('MAIL', 'SHIP', 'RAIL')
	group by l_shipmode`},
	{"W1", `select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, l_shipmode
	from lineitem
	where l_shipdate >= date '1997-01-01' and l_shipdate < date '1998-01-01'`},
	{"W2", `select o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority
	from orders
	where o_orderdate < date '1994-09-01'`},
	{"W3", `select l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) as net
	from lineitem
	where l_shipdate < date '1993-03-01'
	order by l_orderkey, l_linenumber`},
	{"W4", `select c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment
	from customer`},
}

// TestExplainGolden pins the distributed physical plan of every statement the
// benchmark runs — the 22 TPC-H texts and bench/'s S- and W-statements — so a
// front-end refactor that claims "same plans" is checked byte for byte.
// Regenerate with `go test ./internal/tpch -run TestExplainGolden -update`
// when a plan change is intended, and say why in the commit.
func TestExplainGolden(t *testing.T) {
	d := Generate(0.004, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	explain := func(name, text string) {
		ex, err := db.ExplainSQL(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s", name, ex)
	}
	for q := 1; q <= NumQueries; q++ {
		explain(fmt.Sprintf("Q%02d", q), SQLQueries[q])
	}
	for _, s := range benchStmts {
		explain(s.name, s.sql)
	}
	const path = "testdata/explain.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("plans differ from %s: golden has %d lines, got %d", path, len(wl), len(gl))
	}
}
