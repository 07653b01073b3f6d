package tpch

import (
	"context"
	"fmt"
	"testing"

	"vectorh/internal/baseline"
	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
)

// TestAggregatesMatchAcrossPlans runs every aggregate function over every
// argument kind, on a partitioned and a replicated table, under predicates
// that select no rows, one partition's rows and all rows. Each statement
// runs with PartialAgg on (a partial aggregate per stream, a final one after
// the exchange) and off (one aggregate over the exchanged rows), and both
// must equal internal/baseline exactly.
//
// No slack: integers, dates, strings and counts compare exactly, and so do
// money columns under MIN and MAX. A SUM or AVG of a money column is a float
// sum whose last digits depend on the order the plan adds rows in; it is
// compared only where one stream holds every row, and left out where the
// predicate selects every row.
func TestAggregatesMatchAcrossPlans(t *testing.T) {
	d := Generate(0.005, 7)
	eng := newEngine(t)
	if err := LoadIntoEngine(eng, d, 6); err != nil {
		t.Fatal(err)
	}
	base := baseline.New(baseline.Hive)
	if err := LoadIntoBaseline(base, d); err != nil {
		t.Fatal(err)
	}

	type arg struct {
		col   string
		money bool // SUM and AVG are float sums
		str   bool // MIN and MAX only
	}
	type pred struct {
		where string
		all   bool // every row: more than one stream adds
	}
	var stmts []string
	skip := map[string][]bool{} // per statement, the columns left out
	add := func(table string, args []arg, preds []pred) {
		for _, a := range args {
			for _, p := range preds {
				sel := fmt.Sprintf("sum(%[1]s) as s, count(%[1]s) as c, count(*) as n, min(%[1]s) as lo, max(%[1]s) as hi, avg(%[1]s) as a", a.col)
				left := []bool{a.money && p.all, false, false, false, false, a.money && p.all}
				if a.str {
					sel = fmt.Sprintf("count(%[1]s) as c, count(*) as n, min(%[1]s) as lo, max(%[1]s) as hi", a.col)
					left = nil
				}
				q := fmt.Sprintf("select %s from %s where %s", sel, table, p.where)
				stmts, skip[q] = append(stmts, q), left
			}
		}
	}
	add("lineitem", []arg{{col: "l_shipdate"}, {col: "l_orderkey"}, {col: "l_extendedprice", money: true}, {col: "l_shipmode", str: true}},
		[]pred{{where: "l_quantity < 0"}, {where: "l_orderkey = 1"}, {where: "l_linenumber > 0", all: true}})
	add("supplier", []arg{{col: "s_suppkey"}, {col: "s_acctbal", money: true}, {col: "s_name", str: true}},
		[]pred{{where: "s_acctbal < -10000"}, {where: "s_nationkey = 1"}, {where: "s_suppkey > 0", all: true}})
	// A global MIN/MAX whose rows sit in one stream: the other streams'
	// partials used to add their zeros. AVG over no rows is 0 on every path.
	stmts = append(stmts,
		"select min(l_extendedprice), max(l_extendedprice), count(*) from lineitem where l_orderkey = 1",
		"select max(c_acctbal), count(*) from customer where c_acctbal < -990",
		"select avg(l_quantity) from lineitem where l_quantity < 0",
		"select avg(n_nationkey) from nation where n_nationkey < 0",
	)

	ctx := context.Background()
	render := func(rows [][]any, left []bool) []string {
		var out []string
		for _, row := range rows {
			for c, v := range row {
				if c < len(left) && left[c] {
					v = "-"
				}
				out = append(out, fmt.Sprintf("%T %v", v, v))
			}
		}
		return out
	}
	for _, q := range stmts {
		p, err := sql.Compile(q, eng)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		bp, err := sql.Compile(q, base)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := base.Query(bp)
		if err != nil {
			t.Fatalf("%s: baseline: %v", q, err)
		}
		w := fmt.Sprint(render(want, skip[q]))
		for _, opts := range []core.QueryOptions{{}, {Disable: rewriter.PartialAgg}} {
			res, err := eng.Run(ctx, p, opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if g := fmt.Sprint(render(res.Rows, skip[q])); g != w {
				t.Errorf("%s (Disable %05b):\n engine   %s\n baseline %s", q, opts.Disable, g, w)
			}
		}
	}
}
