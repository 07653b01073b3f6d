package main

import (
	"fmt"

	"vectorh/internal/tpch"
)

// stmt is one SQL statement of a workload.
type stmt struct {
	name string
	sql  string
	// tpchQ is the TPC-H query number (0 for the benchmark's own
	// statements); it selects the internal/baseline oracle.
	tpchQ int
	// ordered marks a statement whose ORDER BY is a total order, so the row
	// sequence is part of the answer.
	ordered bool
	// floor, when set, is the statement as a plain Go loop over the
	// generated data: the cheap independent oracle.
	floor func(d *tpch.Data) [][]any
	// ref is the digest of the statement's result at set-up; every measured
	// response must reproduce it.
	ref digest
}

// Date windows of the wide_result projections, shared by SQL text and floor.
const (
	w1From, w1Before = "1997-01-01", "1998-01-01"
	w2Before         = "1994-09-01"
	w3Before         = "1993-03-01"
)

func onLineitem(f func(lineitemCols) [][]any) func(*tpch.Data) [][]any {
	return func(d *tpch.Data) [][]any { return f(lineitemOf(d.Tables["lineitem"])) }
}

// totalOrder holds the TPC-H queries whose ORDER BY fixes the whole row
// sequence through exact keys: group-by or unique columns and counts. Q03,
// Q05, Q10, Q11 and Q18 sort by a float sum or leave ties open, so there the
// sequence is not part of the answer.
var totalOrder = map[int]bool{1: true, 2: true, 4: true, 7: true, 8: true, 9: true, 12: true,
	13: true, 15: true, 16: true, 20: true, 21: true, 22: true}

func tpchStmt(q int) stmt {
	s := stmt{name: fmt.Sprintf("Q%02d", q), sql: tpch.SQLQueries[q], tpchQ: q, ordered: totalOrder[q]}
	switch q {
	case 1:
		s.floor = onLineitem(floorQ01)
	case 6:
		s.floor = onLineitem(floorQ06)
	}
	return s
}

func tpchStmts(qs ...int) []stmt {
	out := make([]stmt, len(qs))
	for i, q := range qs {
		out[i] = tpchStmt(q)
	}
	return out
}

// scanAggStmts is shared by scan_agg (warm block cache) and cold_scan (no
// block cache): one statement set on both sides of the cache.
func scanAggStmts() []stmt {
	return append(tpchStmts(1, 6),
		stmt{name: "S3", floor: onLineitem(floorS3), sql: `select l_shipmode, year(l_shipdate) as ship_year,
	       sum(case when l_discount > 0.05 then l_extendedprice * (1 - l_discount) else 0 end) as disc_revenue,
	       sum(l_quantity * l_tax) as qty_tax
	from lineitem
	group by l_shipmode, ship_year`},
		stmt{name: "S4", floor: onLineitem(floorS4), sql: `select l_shipmode, count(*) as n, sum(l_extendedprice) as price
	from lineitem
	where l_comment like '%regular%' and l_shipmode in ('MAIL', 'SHIP', 'RAIL')
	group by l_shipmode`},
	)
}

func wideResultStmts() []stmt {
	return []stmt{
		{name: "W1", floor: onLineitem(floorW1), sql: `select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate, l_shipmode
	from lineitem
	where l_shipdate >= date '` + w1From + `' and l_shipdate < date '` + w1Before + `'`},
		{name: "W2", floor: func(d *tpch.Data) [][]any { return floorW2(d.Tables["orders"]) },
			sql: `select o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority
	from orders
	where o_orderdate < date '` + w2Before + `'`},
		{name: "W3", ordered: true, floor: onLineitem(floorW3), sql: `select l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) as net
	from lineitem
	where l_shipdate < date '` + w3Before + `'
	order by l_orderkey, l_linenumber`},
		{name: "W4", floor: func(d *tpch.Data) [][]any { return floorW4(d.Tables["customer"]) },
			sql: `select c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment
	from customer`},
	}
}

func allTPCHStmts() []stmt {
	qs := make([]int, tpch.NumQueries)
	for i := range qs {
		qs[i] = i + 1
	}
	return tpchStmts(qs...)
}

// workloadStmts returns the read statements of a workload.
func workloadStmts(workload string) ([]stmt, error) {
	switch workload {
	case wScanAgg, wColdScan:
		return scanAggStmts(), nil
	case wJoinHeavy:
		return tpchStmts(3, 5, 7, 8, 9, 10, 18, 21), nil
	case wWideResult:
		return wideResultStmts(), nil
	case wRefreshMix:
		return tpchStmts(1, 6, 3, 12, 14), nil
	case wSessions:
		return allTPCHStmts(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
