package main

import (
	"sort"
	"strings"

	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// The floor: the single-table statements of the benchmark as plain Go loops
// over the generated column slices. They serve twice — as the independent
// oracle for every statement that has one, and as the denominator of
// "x from the floor" (core.q01_x_floor, core.q06_x_floor): the time a
// straight loop needs for the same answer on the same rows.
//
// Decimals are int64 hundredths; the loops scale them exactly as the engine
// does (float64(v) * 0.01) so boundary comparisons agree bit for bit.

type lineitemCols struct {
	orderkey, partkey                 []int64
	linenumber                        []int32
	quantity, extprice, discount, tax []int64
	returnflag, linestatus            []string
	shipdate                          []int32
	shipmode, comment                 []string
}

func lineitemOf(b *vector.Batch) lineitemCols {
	col := func(name string) *vector.Vec { return b.Vecs[tpch.LineitemSchema.Index(name)] }
	return lineitemCols{
		orderkey:   col("l_orderkey").Int64s(),
		partkey:    col("l_partkey").Int64s(),
		linenumber: col("l_linenumber").Int32s(),
		quantity:   col("l_quantity").Int64s(),
		extprice:   col("l_extendedprice").Int64s(),
		discount:   col("l_discount").Int64s(),
		tax:        col("l_tax").Int64s(),
		returnflag: col("l_returnflag").Strings(),
		linestatus: col("l_linestatus").Strings(),
		shipdate:   col("l_shipdate").Int32s(),
		shipmode:   col("l_shipmode").Strings(),
		comment:    col("l_comment").Strings(),
	}
}

func dec(v int64) float64 { return float64(v) * 0.01 }

func floorQ01(li lineitemCols) [][]any {
	type acc struct {
		flag, status                      string
		qty, base, disc, charge, discount float64
		n                                 int64
	}
	var slot [1 << 16]int16 // (flag byte, status byte) -> index+1 into groups
	var groups []acc
	cutoff := vector.MustDate("1998-09-02")
	for i, ship := range li.shipdate {
		if ship > cutoff {
			continue
		}
		k := int(li.returnflag[i][0])<<8 | int(li.linestatus[i][0])
		g := slot[k]
		if g == 0 {
			groups = append(groups, acc{flag: li.returnflag[i], status: li.linestatus[i]})
			g = int16(len(groups))
			slot[k] = g
		}
		a := &groups[g-1]
		price, d := dec(li.extprice[i]), dec(li.discount[i])
		a.qty += dec(li.quantity[i])
		a.base += price
		a.disc += price * (1 - d)
		a.charge += price * (1 - d) * (1 + dec(li.tax[i]))
		a.discount += d
		a.n++
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].flag != groups[j].flag {
			return groups[i].flag < groups[j].flag
		}
		return groups[i].status < groups[j].status
	})
	rows := make([][]any, len(groups))
	for i, a := range groups {
		n := float64(a.n)
		rows[i] = []any{a.flag, a.status, a.qty, a.base, a.disc, a.charge,
			a.qty / n, a.base / n, a.discount / n, a.n}
	}
	return rows
}

func floorQ06(li lineitemCols) [][]any {
	lo, hi := vector.MustDate("1994-01-01"), vector.MustDate("1995-01-01")
	var revenue float64
	for i, ship := range li.shipdate {
		if ship < lo || ship >= hi {
			continue
		}
		d := dec(li.discount[i])
		if d >= 0.05 && d <= 0.07 && dec(li.quantity[i]) < 24 {
			revenue += dec(li.extprice[i]) * d
		}
	}
	return [][]any{{revenue}}
}

func floorS3(li lineitemCols) [][]any {
	type key struct {
		mode string
		year int32
	}
	type acc struct{ discRevenue, qtyTax float64 }
	groups := map[key]*acc{}
	for i, ship := range li.shipdate {
		k := key{li.shipmode[i], vector.YearOf(ship)}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		if d := dec(li.discount[i]); d > 0.05 {
			a.discRevenue += dec(li.extprice[i]) * (1 - d)
		}
		a.qtyTax += dec(li.quantity[i]) * dec(li.tax[i])
	}
	rows := make([][]any, 0, len(groups))
	for k, a := range groups {
		rows = append(rows, []any{k.mode, k.year, a.discRevenue, a.qtyTax})
	}
	return rows
}

func floorS4(li lineitemCols) [][]any {
	type acc struct {
		n     int64
		price float64
	}
	groups := map[string]*acc{}
	for i, mode := range li.shipmode {
		if mode != "MAIL" && mode != "SHIP" && mode != "RAIL" {
			continue
		}
		if !strings.Contains(li.comment[i], "regular") {
			continue
		}
		a := groups[mode]
		if a == nil {
			a = &acc{}
			groups[mode] = a
		}
		a.n++
		a.price += dec(li.extprice[i])
	}
	rows := make([][]any, 0, len(groups))
	for mode, a := range groups {
		rows = append(rows, []any{mode, a.n, a.price})
	}
	return rows
}

func floorW1(li lineitemCols) [][]any {
	lo, hi := vector.MustDate(w1From), vector.MustDate(w1Before)
	var rows [][]any
	for i, ship := range li.shipdate {
		if ship >= lo && ship < hi {
			rows = append(rows, []any{li.orderkey[i], li.partkey[i], li.quantity[i],
				li.extprice[i], ship, li.shipmode[i]})
		}
	}
	return rows
}

func floorW2(orders *vector.Batch) [][]any {
	date := orders.Vecs[tpch.OrdersSchema.Index("o_orderdate")].Int32s()
	hi := vector.MustDate(w2Before)
	var rows [][]any
	for i, d := range date {
		if d < hi {
			rows = append(rows, orders.Row(i)[:8]) // all but o_comment
		}
	}
	return rows
}

// floorW3 returns rows in (l_orderkey, l_linenumber) order: the statement's
// ORDER BY is a total order, so the sequence is part of the answer.
func floorW3(li lineitemCols) [][]any {
	hi := vector.MustDate(w3Before)
	var idx []int
	for i, ship := range li.shipdate {
		if ship < hi {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if li.orderkey[i] != li.orderkey[j] {
			return li.orderkey[i] < li.orderkey[j]
		}
		return li.linenumber[i] < li.linenumber[j]
	})
	rows := make([][]any, len(idx))
	for r, i := range idx {
		rows[r] = []any{li.orderkey[i], li.linenumber[i], dec(li.extprice[i]) * (1 - dec(li.discount[i]))}
	}
	return rows
}

func floorW4(customer *vector.Batch) [][]any {
	rows := make([][]any, customer.Len())
	for i := range rows {
		rows[i] = customer.Row(i)
	}
	return rows
}
