package tpch

import (
	"fmt"

	"vectorh/internal/plan"
)

// Runner executes a logical plan; both the VectorH engine and the baseline
// engines satisfy it, so identical query definitions drive the whole §8
// comparison. Queries with scalar subqueries (Q11, Q15, Q22) run the
// subquery through the Runner while building the main plan.
type Runner interface {
	Query(q plan.Node) ([][]any, error)
}

// NumQueries is the TPC-H query count.
const NumQueries = 22

// BuildQuery returns the logical plan of TPC-H query q (1-based).
func BuildQuery(q int, r Runner) (plan.Node, error) {
	if q < 1 || q > NumQueries {
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
	return builders[q-1](r)
}

// revenue is l_extendedprice * (1 - l_discount).
func revenue() plan.Expr {
	return plan.Mul(plan.Dec("l_extendedprice"), plan.Sub(plan.Float(1), plan.Dec("l_discount")))
}

var builders = [NumQueries]func(Runner) (plan.Node, error){}

func init() {
	builders = [NumQueries]func(r Runner) (plan.Node, error){
		q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12,
		q13, q14, q15, q16, q17, q18, q19, q20, q21, q22,
	}
}

func q1(Runner) (plan.Node, error) {
	cutoff := "1998-09-02" // 1998-12-01 - 90 days
	return plan.OrderBy(
		plan.Aggregate(
			plan.Filter(plan.Scan("lineitem", "l_returnflag", "l_linestatus", "l_quantity",
				"l_extendedprice", "l_discount", "l_tax", "l_shipdate"),
				plan.LE(plan.Col("l_shipdate"), plan.Date(cutoff))),
			[]string{"l_returnflag", "l_linestatus"},
			plan.A("sum_qty", plan.Sum, plan.Dec("l_quantity")),
			plan.A("sum_base_price", plan.Sum, plan.Dec("l_extendedprice")),
			plan.A("sum_disc_price", plan.Sum, revenue()),
			plan.A("sum_charge", plan.Sum,
				plan.Mul(revenue(), plan.Add(plan.Float(1), plan.Dec("l_tax")))),
			plan.A("avg_qty", plan.Avg, plan.Dec("l_quantity")),
			plan.A("avg_price", plan.Avg, plan.Dec("l_extendedprice")),
			plan.A("avg_disc", plan.Avg, plan.Dec("l_discount")),
			plan.AStar("count_order")),
		plan.Asc(plan.Col("l_returnflag")), plan.Asc(plan.Col("l_linestatus"))), nil
}

// europeSuppliers joins supplier→nation→region restricted to EUROPE.
func europeSuppliers(cols ...string) plan.Node {
	supp := plan.Scan("supplier", cols...)
	n := plan.Join(plan.InnerJoin, supp, plan.Scan("nation", "n_nationkey", "n_name", "n_regionkey"),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	return plan.Join(plan.InnerJoin, n,
		plan.Filter(plan.Scan("region", "r_regionkey", "r_name"),
			plan.EQ(plan.Col("r_name"), plan.Str("EUROPE"))),
		[]string{"n_regionkey"}, []string{"r_regionkey"})
}

func q2(Runner) (plan.Node, error) {
	// Minimum supply cost per part across EUROPE.
	minCost := plan.Aggregate(
		plan.Join(plan.InnerJoin,
			plan.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
			europeSuppliers("s_suppkey", "s_nationkey"),
			[]string{"ps_suppkey"}, []string{"s_suppkey"}),
		[]string{"ps_partkey"},
		plan.A("min_cost", plan.Min, plan.Col("ps_supplycost")))
	minCost2 := plan.Project(minCost, plan.As("mc_partkey", plan.Col("ps_partkey")),
		plan.As("mc_cost", plan.Col("min_cost")))

	parts := plan.Filter(plan.Scan("part", "p_partkey", "p_mfgr", "p_size", "p_type"),
		plan.And(plan.EQ(plan.Col("p_size"), plan.Int(15)), plan.Like(plan.Col("p_type"), "%BRASS")))
	ps := plan.Join(plan.InnerJoin,
		plan.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"), parts,
		[]string{"ps_partkey"}, []string{"p_partkey"})
	withMin := plan.Join(plan.InnerJoin, ps, minCost2,
		[]string{"ps_partkey", "ps_supplycost"}, []string{"mc_partkey", "mc_cost"})
	full := plan.Join(plan.InnerJoin, withMin,
		europeSuppliers("s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"),
		[]string{"ps_suppkey"}, []string{"s_suppkey"})
	return plan.Top(
		plan.Project(full,
			plan.As("s_acctbal", plan.Dec("s_acctbal")), plan.C("s_name"), plan.C("n_name"),
			plan.C("p_partkey"), plan.C("p_mfgr"), plan.C("s_address"), plan.C("s_phone"), plan.C("s_comment")),
		100,
		plan.Desc(plan.Col("s_acctbal")), plan.Asc(plan.Col("n_name")),
		plan.Asc(plan.Col("s_name")), plan.Asc(plan.Col("p_partkey"))), nil
}

func q3(Runner) (plan.Node, error) {
	cust := plan.Filter(plan.Scan("customer", "c_custkey", "c_mktsegment"),
		plan.EQ(plan.Col("c_mktsegment"), plan.Str("BUILDING")))
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"),
		plan.LT(plan.Col("o_orderdate"), plan.Date("1995-03-15")))
	li := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"),
		plan.GT(plan.Col("l_shipdate"), plan.Date("1995-03-15")))
	co := plan.Join(plan.InnerJoin, ord, cust, []string{"o_custkey"}, []string{"c_custkey"})
	j := plan.Join(plan.InnerJoin, li, co, []string{"l_orderkey"}, []string{"o_orderkey"})
	return plan.Top(
		plan.Aggregate(j, []string{"l_orderkey", "o_orderdate", "o_shippriority"},
			plan.A("revenue", plan.Sum, revenue())),
		10, plan.Desc(plan.Col("revenue")), plan.Asc(plan.Col("o_orderdate"))), nil
}

func q4(Runner) (plan.Node, error) {
	late := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_commitdate", "l_receiptdate"),
		plan.LT(plan.Col("l_commitdate"), plan.Col("l_receiptdate")))
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_orderdate", "o_orderpriority"),
		plan.And(plan.GE(plan.Col("o_orderdate"), plan.Date("1993-07-01")),
			plan.LT(plan.Col("o_orderdate"), plan.DateOffset("1993-07-01", 3))))
	semi := plan.Join(plan.SemiJoin, ord, late, []string{"o_orderkey"}, []string{"l_orderkey"})
	return plan.OrderBy(
		plan.Aggregate(semi, []string{"o_orderpriority"}, plan.AStar("order_count")),
		plan.Asc(plan.Col("o_orderpriority"))), nil
}

func q5(Runner) (plan.Node, error) {
	cust := plan.Scan("customer", "c_custkey", "c_nationkey")
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		plan.And(plan.GE(plan.Col("o_orderdate"), plan.Date("1994-01-01")),
			plan.LT(plan.Col("o_orderdate"), plan.Date("1995-01-01"))))
	oc := plan.Join(plan.InnerJoin, ord, cust, []string{"o_custkey"}, []string{"c_custkey"})
	li := plan.Scan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	loc := plan.Join(plan.InnerJoin, li, oc, []string{"l_orderkey"}, []string{"o_orderkey"})
	sup := plan.Join(plan.InnerJoin, loc, plan.Scan("supplier", "s_suppkey", "s_nationkey"),
		[]string{"l_suppkey"}, []string{"s_suppkey"}).
		On(plan.EQ(plan.Col("c_nationkey"), plan.Col("s_nationkey")))
	nat := plan.Join(plan.InnerJoin, sup, plan.Scan("nation", "n_nationkey", "n_name", "n_regionkey"),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	reg := plan.Join(plan.InnerJoin, nat,
		plan.Filter(plan.Scan("region", "r_regionkey", "r_name"),
			plan.EQ(plan.Col("r_name"), plan.Str("ASIA"))),
		[]string{"n_regionkey"}, []string{"r_regionkey"})
	return plan.OrderBy(
		plan.Aggregate(reg, []string{"n_name"}, plan.A("revenue", plan.Sum, revenue())),
		plan.Desc(plan.Col("revenue"))), nil
}

func q6(Runner) (plan.Node, error) {
	li := plan.Filter(plan.Scan("lineitem", "l_extendedprice", "l_discount", "l_quantity", "l_shipdate"),
		plan.AndAll(
			plan.GE(plan.Col("l_shipdate"), plan.Date("1994-01-01")),
			plan.LT(plan.Col("l_shipdate"), plan.Date("1995-01-01")),
			plan.Between(plan.Dec("l_discount"), plan.Float(0.05), plan.Float(0.07)),
			plan.LT(plan.Dec("l_quantity"), plan.Float(24))))
	return plan.Aggregate(li, nil,
		plan.A("revenue", plan.Sum, plan.Mul(plan.Dec("l_extendedprice"), plan.Dec("l_discount")))), nil
}

func q7(Runner) (plan.Node, error) {
	n1 := plan.Project(plan.Scan("nation", "n_nationkey", "n_name"),
		plan.As("n1_key", plan.Col("n_nationkey")), plan.As("supp_nation", plan.Col("n_name")))
	n2 := plan.Project(plan.Scan("nation", "n_nationkey", "n_name"),
		plan.As("n2_key", plan.Col("n_nationkey")), plan.As("cust_nation", plan.Col("n_name")))
	li := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
		plan.Between(plan.Col("l_shipdate"), plan.Date("1995-01-01"), plan.Date("1996-12-31")))
	lo := plan.Join(plan.InnerJoin, li, plan.Scan("orders", "o_orderkey", "o_custkey"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	loc := plan.Join(plan.InnerJoin, lo, plan.Scan("customer", "c_custkey", "c_nationkey"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	los := plan.Join(plan.InnerJoin, loc, plan.Scan("supplier", "s_suppkey", "s_nationkey"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	jn1 := plan.Join(plan.InnerJoin, los, n1, []string{"s_nationkey"}, []string{"n1_key"})
	jn2 := plan.Join(plan.InnerJoin, jn1, n2, []string{"c_nationkey"}, []string{"n2_key"}).
		On(plan.Or(
			plan.And(plan.EQ(plan.Col("supp_nation"), plan.Str("FRANCE")),
				plan.EQ(plan.Col("cust_nation"), plan.Str("GERMANY"))),
			plan.And(plan.EQ(plan.Col("supp_nation"), plan.Str("GERMANY")),
				plan.EQ(plan.Col("cust_nation"), plan.Str("FRANCE")))))
	pre := plan.Project(jn2,
		plan.C("supp_nation"), plan.C("cust_nation"),
		plan.As("l_year", plan.Year(plan.Col("l_shipdate"))),
		plan.As("volume", revenue()))
	return plan.OrderBy(
		plan.Aggregate(pre, []string{"supp_nation", "cust_nation", "l_year"},
			plan.A("revenue", plan.Sum, plan.Col("volume"))),
		plan.Asc(plan.Col("supp_nation")), plan.Asc(plan.Col("cust_nation")), plan.Asc(plan.Col("l_year"))), nil
}

func q8(Runner) (plan.Node, error) {
	part := plan.Filter(plan.Scan("part", "p_partkey", "p_type"),
		plan.EQ(plan.Col("p_type"), plan.Str("ECONOMY ANODIZED STEEL")))
	li := plan.Scan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
	lp := plan.Join(plan.InnerJoin, li, part, []string{"l_partkey"}, []string{"p_partkey"})
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		plan.Between(plan.Col("o_orderdate"), plan.Date("1995-01-01"), plan.Date("1996-12-31")))
	lpo := plan.Join(plan.InnerJoin, lp, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	cust := plan.Join(plan.InnerJoin, lpo, plan.Scan("customer", "c_custkey", "c_nationkey"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	n1 := plan.Project(plan.Scan("nation", "n_nationkey", "n_regionkey"),
		plan.As("cn_key", plan.Col("n_nationkey")), plan.As("cn_region", plan.Col("n_regionkey")))
	cn := plan.Join(plan.InnerJoin, cust, n1, []string{"c_nationkey"}, []string{"cn_key"})
	reg := plan.Join(plan.InnerJoin, cn,
		plan.Filter(plan.Scan("region", "r_regionkey", "r_name"),
			plan.EQ(plan.Col("r_name"), plan.Str("AMERICA"))),
		[]string{"cn_region"}, []string{"r_regionkey"})
	sup := plan.Join(plan.InnerJoin, reg, plan.Scan("supplier", "s_suppkey", "s_nationkey"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	n2 := plan.Project(plan.Scan("nation", "n_nationkey", "n_name"),
		plan.As("sn_key", plan.Col("n_nationkey")), plan.As("supp_nation", plan.Col("n_name")))
	sn := plan.Join(plan.InnerJoin, sup, n2, []string{"s_nationkey"}, []string{"sn_key"})
	pre := plan.Project(sn,
		plan.As("o_year", plan.Year(plan.Col("o_orderdate"))),
		plan.As("volume", revenue()),
		plan.As("brazil_volume",
			plan.Case(plan.EQ(plan.Col("supp_nation"), plan.Str("BRAZIL")), revenue(), plan.Float(0))))
	agg := plan.Aggregate(pre, []string{"o_year"},
		plan.A("brazil", plan.Sum, plan.Col("brazil_volume")),
		plan.A("total", plan.Sum, plan.Col("volume")))
	return plan.OrderBy(
		plan.Project(agg, plan.C("o_year"),
			plan.As("mkt_share", plan.Div(plan.Col("brazil"), plan.Col("total")))),
		plan.Asc(plan.Col("o_year"))), nil
}

func q9(Runner) (plan.Node, error) {
	part := plan.Filter(plan.Scan("part", "p_partkey", "p_name"),
		plan.Like(plan.Col("p_name"), "%green%"))
	li := plan.Scan("lineitem", "l_orderkey", "l_partkey", "l_suppkey",
		"l_extendedprice", "l_discount", "l_quantity")
	lp := plan.Join(plan.InnerJoin, li, part, []string{"l_partkey"}, []string{"p_partkey"})
	ps := plan.Join(plan.InnerJoin, lp, plan.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost"),
		[]string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"})
	ord := plan.Join(plan.InnerJoin, ps, plan.Scan("orders", "o_orderkey", "o_orderdate"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	sup := plan.Join(plan.InnerJoin, ord, plan.Scan("supplier", "s_suppkey", "s_nationkey"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	nat := plan.Join(plan.InnerJoin, sup, plan.Scan("nation", "n_nationkey", "n_name"),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	pre := plan.Project(nat,
		plan.As("nation", plan.Col("n_name")),
		plan.As("o_year", plan.Year(plan.Col("o_orderdate"))),
		plan.As("amount", plan.Sub(revenue(),
			plan.Mul(plan.Dec("ps_supplycost"), plan.Dec("l_quantity")))))
	return plan.OrderBy(
		plan.Aggregate(pre, []string{"nation", "o_year"},
			plan.A("sum_profit", plan.Sum, plan.Col("amount"))),
		plan.Asc(plan.Col("nation")), plan.Desc(plan.Col("o_year"))), nil
}

func q10(Runner) (plan.Node, error) {
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate"),
		plan.And(plan.GE(plan.Col("o_orderdate"), plan.Date("1993-10-01")),
			plan.LT(plan.Col("o_orderdate"), plan.DateOffset("1993-10-01", 3))))
	li := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"),
		plan.EQ(plan.Col("l_returnflag"), plan.Str("R")))
	lo := plan.Join(plan.InnerJoin, li, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	cust := plan.Join(plan.InnerJoin, lo,
		plan.Scan("customer", "c_custkey", "c_name", "c_acctbal", "c_address", "c_phone", "c_comment", "c_nationkey"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	nat := plan.Join(plan.InnerJoin, cust, plan.Scan("nation", "n_nationkey", "n_name"),
		[]string{"c_nationkey"}, []string{"n_nationkey"})
	return plan.Top(
		plan.Aggregate(nat,
			[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
			plan.A("revenue", plan.Sum, revenue())),
		20, plan.Desc(plan.Col("revenue")), plan.Asc(plan.Col("c_custkey"))), nil
}

func q11(r Runner) (plan.Node, error) {
	base := func() plan.Node {
		ps := plan.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
		sup := plan.Join(plan.InnerJoin, ps, plan.Scan("supplier", "s_suppkey", "s_nationkey"),
			[]string{"ps_suppkey"}, []string{"s_suppkey"})
		return plan.Join(plan.InnerJoin, sup,
			plan.Filter(plan.Scan("nation", "n_nationkey", "n_name"),
				plan.EQ(plan.Col("n_name"), plan.Str("GERMANY"))),
			[]string{"s_nationkey"}, []string{"n_nationkey"})
	}
	value := plan.Mul(plan.Dec("ps_supplycost"), plan.Scaled(plan.Col("ps_availqty"), 1))
	totalRows, err := r.Query(plan.Aggregate(base(), nil, plan.A("t", plan.Sum, value)))
	if err != nil {
		return nil, err
	}
	threshold := totalRows[0][0].(float64) * 0.0001
	return plan.OrderBy(
		plan.Filter(
			plan.Aggregate(base(), []string{"ps_partkey"}, plan.A("value", plan.Sum, value)),
			plan.GT(plan.Col("value"), plan.Float(threshold))),
		plan.Desc(plan.Col("value"))), nil
}

func q12(Runner) (plan.Node, error) {
	li := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"),
		plan.AndAll(
			plan.InStr(plan.Col("l_shipmode"), "MAIL", "SHIP"),
			plan.LT(plan.Col("l_commitdate"), plan.Col("l_receiptdate")),
			plan.LT(plan.Col("l_shipdate"), plan.Col("l_commitdate")),
			plan.GE(plan.Col("l_receiptdate"), plan.Date("1994-01-01")),
			plan.LT(plan.Col("l_receiptdate"), plan.Date("1995-01-01"))))
	j := plan.Join(plan.InnerJoin, li, plan.Scan("orders", "o_orderkey", "o_orderpriority"),
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	pre := plan.Project(j,
		plan.C("l_shipmode"),
		plan.As("high", plan.Case(
			plan.InStr(plan.Col("o_orderpriority"), "1-URGENT", "2-HIGH"), plan.Int(1), plan.Int(0))),
		plan.As("low", plan.Case(
			plan.InStr(plan.Col("o_orderpriority"), "1-URGENT", "2-HIGH"), plan.Int(0), plan.Int(1))))
	return plan.OrderBy(
		plan.Aggregate(pre, []string{"l_shipmode"},
			plan.A("high_line_count", plan.Sum, plan.Col("high")),
			plan.A("low_line_count", plan.Sum, plan.Col("low"))),
		plan.Asc(plan.Col("l_shipmode"))), nil
}

func q13(Runner) (plan.Node, error) {
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_custkey", "o_comment"),
		plan.NotLike(plan.Col("o_comment"), "%special%requests%"))
	lo := plan.Join(plan.LeftOuterJoin, plan.Scan("customer", "c_custkey"), ord,
		[]string{"c_custkey"}, []string{"o_custkey"})
	perCust := plan.Aggregate(
		plan.Project(lo, plan.C("c_custkey"),
			plan.As("one", plan.Case(plan.Col(plan.MatchedCol), plan.Int(1), plan.Int(0)))),
		[]string{"c_custkey"},
		plan.A("c_count", plan.Sum, plan.Col("one")))
	return plan.OrderBy(
		plan.Aggregate(perCust, []string{"c_count"}, plan.AStar("custdist")),
		plan.Desc(plan.Col("custdist")), plan.Desc(plan.Col("c_count"))), nil
}

func q14(Runner) (plan.Node, error) {
	li := plan.Filter(plan.Scan("lineitem", "l_partkey", "l_extendedprice", "l_discount", "l_shipdate"),
		plan.And(plan.GE(plan.Col("l_shipdate"), plan.Date("1995-09-01")),
			plan.LT(plan.Col("l_shipdate"), plan.DateOffset("1995-09-01", 1))))
	j := plan.Join(plan.InnerJoin, li, plan.Scan("part", "p_partkey", "p_type"),
		[]string{"l_partkey"}, []string{"p_partkey"})
	pre := plan.Project(j,
		plan.As("promo", plan.Case(plan.Like(plan.Col("p_type"), "PROMO%"), revenue(), plan.Float(0))),
		plan.As("total", revenue()))
	agg := plan.Aggregate(pre, nil,
		plan.A("p", plan.Sum, plan.Col("promo")), plan.A("t", plan.Sum, plan.Col("total")))
	return plan.Project(agg,
		plan.As("promo_revenue", plan.Mul(plan.Float(100), plan.Div(plan.Col("p"), plan.Col("t"))))), nil
}

func q15(r Runner) (plan.Node, error) {
	rev := func() plan.Node {
		li := plan.Filter(plan.Scan("lineitem", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"),
			plan.And(plan.GE(plan.Col("l_shipdate"), plan.Date("1996-01-01")),
				plan.LT(plan.Col("l_shipdate"), plan.DateOffset("1996-01-01", 3))))
		return plan.Aggregate(li, []string{"l_suppkey"},
			plan.A("total_revenue", plan.Sum, revenue()))
	}
	maxRows, err := r.Query(plan.Aggregate(rev(), nil, plan.A("m", plan.Max, plan.Col("total_revenue"))))
	if err != nil {
		return nil, err
	}
	maxRev := maxRows[0][0].(float64)
	top := plan.Filter(rev(), plan.GE(plan.Col("total_revenue"), plan.Float(maxRev*(1-1e-9))))
	j := plan.Join(plan.InnerJoin, top,
		plan.Scan("supplier", "s_suppkey", "s_name", "s_address", "s_phone"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	return plan.OrderBy(
		plan.Project(j, plan.C("s_suppkey"), plan.C("s_name"), plan.C("s_address"),
			plan.C("s_phone"), plan.C("total_revenue")),
		plan.Asc(plan.Col("s_suppkey"))), nil
}

func q16(Runner) (plan.Node, error) {
	part := plan.Filter(plan.Scan("part", "p_partkey", "p_brand", "p_type", "p_size"),
		plan.AndAll(
			plan.NE(plan.Col("p_brand"), plan.Str("Brand#45")),
			plan.NotLike(plan.Col("p_type"), "MEDIUM POLISHED%"),
			plan.InInt(plan.Col("p_size"), 49, 14, 23, 45, 19, 3, 36, 9)))
	complainers := plan.Filter(plan.Scan("supplier", "s_suppkey", "s_comment"),
		plan.Like(plan.Col("s_comment"), "%Customer%Complaints%"))
	ps := plan.Join(plan.AntiJoin, plan.Scan("partsupp", "ps_partkey", "ps_suppkey"), complainers,
		[]string{"ps_suppkey"}, []string{"s_suppkey"})
	j := plan.Join(plan.InnerJoin, ps, part, []string{"ps_partkey"}, []string{"p_partkey"})
	return plan.OrderBy(
		plan.Aggregate(j, []string{"p_brand", "p_type", "p_size"},
			plan.A("supplier_cnt", plan.CountDistinct, plan.Col("ps_suppkey"))),
		plan.Desc(plan.Col("supplier_cnt")), plan.Asc(plan.Col("p_brand")),
		plan.Asc(plan.Col("p_type")), plan.Asc(plan.Col("p_size"))), nil
}

func q17(Runner) (plan.Node, error) {
	avgQty := plan.Project(
		plan.Aggregate(plan.Scan("lineitem", "l_partkey", "l_quantity"),
			[]string{"l_partkey"}, plan.A("aq", plan.Avg, plan.Dec("l_quantity"))),
		plan.As("aq_partkey", plan.Col("l_partkey")), plan.As("aq", plan.Col("aq")))
	part := plan.Filter(plan.Scan("part", "p_partkey", "p_brand", "p_container"),
		plan.And(plan.EQ(plan.Col("p_brand"), plan.Str("Brand#23")),
			plan.EQ(plan.Col("p_container"), plan.Str("MED BOX"))))
	li := plan.Join(plan.InnerJoin,
		plan.Scan("lineitem", "l_partkey", "l_quantity", "l_extendedprice"), part,
		[]string{"l_partkey"}, []string{"p_partkey"})
	withAvg := plan.Join(plan.InnerJoin, li, avgQty, []string{"l_partkey"}, []string{"aq_partkey"}).
		On(plan.LT(plan.Dec("l_quantity"), plan.Mul(plan.Float(0.2), plan.Col("aq"))))
	agg := plan.Aggregate(withAvg, nil, plan.A("s", plan.Sum, plan.Dec("l_extendedprice")))
	return plan.Project(agg, plan.As("avg_yearly", plan.Div(plan.Col("s"), plan.Float(7)))), nil
}

func q18(Runner) (plan.Node, error) {
	big := plan.Filter(
		plan.Aggregate(plan.Scan("lineitem", "l_orderkey", "l_quantity"),
			[]string{"l_orderkey"}, plan.A("sum_qty", plan.Sum, plan.Dec("l_quantity"))),
		plan.GT(plan.Col("sum_qty"), plan.Float(300)))
	bigKeys := plan.Project(big, plan.As("bk", plan.Col("l_orderkey")))
	ord := plan.Join(plan.SemiJoin,
		plan.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"), bigKeys,
		[]string{"o_orderkey"}, []string{"bk"})
	oc := plan.Join(plan.InnerJoin, ord, plan.Scan("customer", "c_custkey", "c_name"),
		[]string{"o_custkey"}, []string{"c_custkey"})
	li := plan.Join(plan.InnerJoin, plan.Scan("lineitem", "l_orderkey", "l_quantity"), oc,
		[]string{"l_orderkey"}, []string{"o_orderkey"})
	return plan.Top(
		plan.Aggregate(li,
			[]string{"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"},
			plan.A("sum_qty", plan.Sum, plan.Dec("l_quantity"))),
		100, plan.Desc(plan.Dec("o_totalprice")), plan.Asc(plan.Col("o_orderdate"))), nil
}

func q19(Runner) (plan.Node, error) {
	li := plan.Filter(plan.Scan("lineitem", "l_partkey", "l_quantity", "l_extendedprice",
		"l_discount", "l_shipinstruct", "l_shipmode"),
		plan.And(plan.InStr(plan.Col("l_shipmode"), "AIR", "REG AIR"),
			plan.EQ(plan.Col("l_shipinstruct"), plan.Str("DELIVER IN PERSON"))))
	j := plan.Join(plan.InnerJoin, li,
		plan.Scan("part", "p_partkey", "p_brand", "p_container", "p_size"),
		[]string{"l_partkey"}, []string{"p_partkey"}).
		On(plan.Or(
			plan.AndAll(
				plan.EQ(plan.Col("p_brand"), plan.Str("Brand#12")),
				plan.InStr(plan.Col("p_container"), "SM CASE", "SM BOX", "SM PACK", "SM PKG"),
				plan.Between(plan.Dec("l_quantity"), plan.Float(1), plan.Float(11)),
				plan.Between(plan.Col("p_size"), plan.Int(1), plan.Int(5))),
			plan.Or(
				plan.AndAll(
					plan.EQ(plan.Col("p_brand"), plan.Str("Brand#23")),
					plan.InStr(plan.Col("p_container"), "MED BAG", "MED BOX", "MED PKG", "MED PACK"),
					plan.Between(plan.Dec("l_quantity"), plan.Float(10), plan.Float(20)),
					plan.Between(plan.Col("p_size"), plan.Int(1), plan.Int(10))),
				plan.AndAll(
					plan.EQ(plan.Col("p_brand"), plan.Str("Brand#34")),
					plan.InStr(plan.Col("p_container"), "LG CASE", "LG BOX", "LG PACK", "LG PKG"),
					plan.Between(plan.Dec("l_quantity"), plan.Float(20), plan.Float(30)),
					plan.Between(plan.Col("p_size"), plan.Int(1), plan.Int(15))))))
	return plan.Aggregate(j, nil, plan.A("revenue", plan.Sum, revenue())), nil
}

func q20(Runner) (plan.Node, error) {
	shipped := plan.Aggregate(
		plan.Filter(plan.Scan("lineitem", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate"),
			plan.And(plan.GE(plan.Col("l_shipdate"), plan.Date("1994-01-01")),
				plan.LT(plan.Col("l_shipdate"), plan.Date("1995-01-01")))),
		[]string{"l_partkey", "l_suppkey"},
		plan.A("sq", plan.Sum, plan.Dec("l_quantity")))
	forest := plan.Filter(plan.Scan("part", "p_partkey", "p_name"),
		plan.Like(plan.Col("p_name"), "forest%"))
	ps := plan.Join(plan.SemiJoin, plan.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty"),
		forest, []string{"ps_partkey"}, []string{"p_partkey"})
	withQty := plan.Join(plan.InnerJoin, ps, shipped,
		[]string{"ps_partkey", "ps_suppkey"}, []string{"l_partkey", "l_suppkey"}).
		On(plan.GT(plan.Scaled(plan.Col("ps_availqty"), 1), plan.Mul(plan.Float(0.5), plan.Col("sq"))))
	goodSupp := plan.Project(withQty, plan.As("gs", plan.Col("ps_suppkey")))
	sup := plan.Join(plan.SemiJoin, plan.Scan("supplier", "s_suppkey", "s_name", "s_address", "s_nationkey"),
		goodSupp, []string{"s_suppkey"}, []string{"gs"})
	canada := plan.Join(plan.InnerJoin, sup,
		plan.Filter(plan.Scan("nation", "n_nationkey", "n_name"),
			plan.EQ(plan.Col("n_name"), plan.Str("CANADA"))),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	return plan.OrderBy(
		plan.Project(canada, plan.C("s_name"), plan.C("s_address")),
		plan.Asc(plan.Col("s_name"))), nil
}

func q21(Runner) (plan.Node, error) {
	// Reformulated exists/not-exists (see queries_test): an order counts
	// when it has >1 distinct suppliers but exactly one late supplier —
	// ours.
	nSupp := plan.Project(
		plan.Aggregate(plan.Scan("lineitem", "l_orderkey", "l_suppkey"),
			[]string{"l_orderkey"}, plan.A("nsupp", plan.CountDistinct, plan.Col("l_suppkey"))),
		plan.As("t_orderkey", plan.Col("l_orderkey")), plan.C("nsupp"))
	nLate := plan.Project(
		plan.Aggregate(
			plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"),
				plan.GT(plan.Col("l_receiptdate"), plan.Col("l_commitdate"))),
			[]string{"l_orderkey"}, plan.A("nlate", plan.CountDistinct, plan.Col("l_suppkey"))),
		plan.As("lt_orderkey", plan.Col("l_orderkey")), plan.C("nlate"))

	l1 := plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"),
		plan.GT(plan.Col("l_receiptdate"), plan.Col("l_commitdate")))
	ord := plan.Filter(plan.Scan("orders", "o_orderkey", "o_orderstatus"),
		plan.EQ(plan.Col("o_orderstatus"), plan.Str("F")))
	lo := plan.Join(plan.InnerJoin, l1, ord, []string{"l_orderkey"}, []string{"o_orderkey"})
	sup := plan.Join(plan.InnerJoin, lo, plan.Scan("supplier", "s_suppkey", "s_name", "s_nationkey"),
		[]string{"l_suppkey"}, []string{"s_suppkey"})
	nat := plan.Join(plan.InnerJoin, sup,
		plan.Filter(plan.Scan("nation", "n_nationkey", "n_name"),
			plan.EQ(plan.Col("n_name"), plan.Str("SAUDI ARABIA"))),
		[]string{"s_nationkey"}, []string{"n_nationkey"})
	wTotal := plan.Join(plan.InnerJoin, nat, nSupp, []string{"l_orderkey"}, []string{"t_orderkey"}).
		On(plan.GT(plan.Col("nsupp"), plan.Int(1)))
	wLate := plan.Join(plan.InnerJoin, wTotal, nLate, []string{"l_orderkey"}, []string{"lt_orderkey"}).
		On(plan.EQ(plan.Col("nlate"), plan.Int(1)))
	return plan.Top(
		plan.Aggregate(wLate, []string{"s_name"}, plan.AStar("numwait")),
		100, plan.Desc(plan.Col("numwait")), plan.Asc(plan.Col("s_name"))), nil
}

func q22(r Runner) (plan.Node, error) {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	cust := plan.Project(plan.Scan("customer", "c_custkey", "c_phone", "c_acctbal"),
		plan.C("c_custkey"),
		plan.As("cntrycode", plan.Substr(plan.Col("c_phone"), 1, 2)),
		plan.As("acctbal", plan.Dec("c_acctbal")))
	inCodes := plan.Filter(cust, plan.InStr(plan.Col("cntrycode"), codes...))
	avgRows, err := r.Query(plan.Aggregate(
		plan.Filter(inCodes, plan.GT(plan.Col("acctbal"), plan.Float(0))),
		nil, plan.A("a", plan.Avg, plan.Col("acctbal"))))
	if err != nil {
		return nil, err
	}
	avgBal := avgRows[0][0].(float64)
	rich := plan.Filter(inCodes, plan.GT(plan.Col("acctbal"), plan.Float(avgBal)))
	noOrders := plan.Join(plan.AntiJoin, rich, plan.Scan("orders", "o_custkey"),
		[]string{"c_custkey"}, []string{"o_custkey"})
	return plan.OrderBy(
		plan.Aggregate(noOrders, []string{"cntrycode"},
			plan.AStar("numcust"), plan.A("totacctbal", plan.Sum, plan.Col("acctbal"))),
		plan.Asc(plan.Col("cntrycode"))), nil
}
