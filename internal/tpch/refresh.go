package tpch

import (
	"fmt"
	"strings"

	"vectorh/internal/vector"
)

// This file renders the TPC-H refresh functions as SQL text for the
// internal/sql DML front-end: RF1 becomes multi-row INSERT INTO … VALUES
// statements for orders and lineitem, RF2 becomes DELETE FROM … WHERE
// o_orderkey IN (…) statements over a picked key set. The experiments
// package replays them through DB.ExecSQL and the vectorh-sql REPL over the
// wire, driving the whole update stack — parser, binder, transactions,
// Write-PDTs, merge on read and update propagation — from SQL text.

// SQLLiteral renders one value of the given column type as a SQL literal:
// dates as DATE 'YYYY-MM-DD', decimals with two digits, strings quoted with
// ” escaping.
func SQLLiteral(t vector.Type, v any) string {
	switch t.Logical {
	case vector.Date:
		if d, ok := v.(int32); ok {
			return "date '" + vector.FormatDate(d) + "'"
		}
	case vector.Decimal:
		if i, ok := v.(int64); ok {
			return vector.FormatDecimal(i)
		}
	}
	switch x := v.(type) {
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case float64:
		return fmt.Sprintf("%g", x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// InsertSQL renders a batch as INSERT statements over the full schema,
// chunked at rowsPerStmt value tuples per statement so statement size stays
// bounded.
func InsertSQL(table string, schema vector.Schema, b *vector.Batch, rowsPerStmt int) []string {
	if rowsPerStmt <= 0 {
		rowsPerStmt = 500
	}
	var out []string
	c := b.Compact()
	for lo := 0; lo < c.Len(); lo += rowsPerStmt {
		hi := lo + rowsPerStmt
		if hi > c.Len() {
			hi = c.Len()
		}
		var sb strings.Builder
		sb.WriteString("insert into " + table + " (" + strings.Join(schema.Names(), ", ") + ") values\n")
		for r := lo; r < hi; r++ {
			if r > lo {
				sb.WriteString(",\n")
			}
			sb.WriteString("(")
			row := c.Row(r)
			for ci, v := range row {
				if ci > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(SQLLiteral(schema[ci].Type, v))
			}
			sb.WriteString(")")
		}
		out = append(out, sb.String())
	}
	return out
}

// RF1SQL renders refresh function RF1 — `count` new orders with their
// lineitems — as SQL INSERT statements (orders first, then lineitem, as the
// spec's referential order requires).
func RF1SQL(d *Data, count int, seed int64) []string {
	orders, items := RF1(d, count, seed)
	stmts := InsertSQL("orders", OrdersSchema, orders, 500)
	return append(stmts, InsertSQL("lineitem", LineitemSchema, items, 500)...)
}

// RF2SQL renders refresh function RF2 — deletion of the picked order keys —
// as SQL DELETE statements (lineitem first, then orders).
func RF2SQL(keys []int64) []string {
	if len(keys) == 0 {
		return nil
	}
	list := make([]string, len(keys))
	for i, k := range keys {
		list[i] = fmt.Sprintf("%d", k)
	}
	in := strings.Join(list, ", ")
	return []string{
		"delete from lineitem where l_orderkey in (" + in + ")",
		"delete from orders where o_orderkey in (" + in + ")",
	}
}
