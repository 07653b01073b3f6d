package tpch

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// probeQueries sample every updated table from several angles; parity tests
// compare their results across engines after each DML stage.
var probeQueries = []string{
	"select count(*) as n, sum(o_totalprice) as total, min(o_orderkey) as mink, max(o_orderkey) as maxk from orders",
	"select count(*) as n, sum(l_extendedprice * (1 - l_discount)) as rev from lineitem",
	"select o_orderpriority, count(*) as n from orders group by o_orderpriority order by o_orderpriority",
}

func assertSameResults(t *testing.T, stage string, a, b *vectorh.DB) {
	t.Helper()
	queries := append([]string{}, probeQueries...)
	queries = append(queries, SQLQueries[1], SQLQueries[3])
	for i, q := range queries {
		ra, err := a.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s probe %d on SQL engine: %v", stage, i, err)
		}
		rb, err := b.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s probe %d on API engine: %v", stage, i, err)
		}
		na, nb := normalize(ra), normalize(rb)
		if len(na) != len(nb) {
			t.Fatalf("%s probe %d: %d vs %d rows", stage, i, len(na), len(nb))
		}
		for r := range na {
			if na[r] != nb[r] {
				t.Fatalf("%s probe %d row %d differs:\n sql %s\n api %s", stage, i, r, na[r], nb[r])
			}
		}
	}
}

// TestSQLDMLParityWithEngineAPI drives one engine through SQL DML text and
// a twin engine through the core API (InsertRows / UpdateWhere /
// DeleteWhere) with equivalent operations on TPC-H SF 0.01, checking that
// affected-row counts and query results stay identical after every stage.
func TestSQLDMLParityWithEngineAPI(t *testing.T) {
	d := Generate(0.01, 7)
	sqlDB, apiDB := newDB(t), newDB(t)
	if err := LoadIntoEngine(sqlDB.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	if err := LoadIntoEngine(apiDB.Engine, d, 6); err != nil {
		t.Fatal(err)
	}

	// INSERT: the RF1 stream as SQL vs the same batches through InsertRows.
	rf1Orders, rf1Items := RF1(d, 20, 3)
	var inserted int64
	for _, s := range RF1SQL(d, 20, 3) {
		n, err := sqlDB.ExecSQL(context.Background(), s)
		if err != nil {
			t.Fatalf("insert SQL: %v", err)
		}
		inserted += n
	}
	if want := int64(rf1Orders.Len() + rf1Items.Len()); inserted != want {
		t.Fatalf("insert affected %d rows, want %d", inserted, want)
	}
	if err := apiDB.InsertRows(context.Background(), "orders", rf1Orders); err != nil {
		t.Fatal(err)
	}
	if err := apiDB.InsertRows(context.Background(), "lineitem", rf1Items); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "after INSERT", sqlDB, apiDB)

	// UPDATE: a multi-column SET with arithmetic over a decimal column.
	upd := `update orders
	        set o_orderpriority = '1-URGENT', o_totalprice = o_totalprice + 10.5
	        where o_orderkey in (3, 17, 2029)`
	nSQL, err := sqlDB.ExecSQL(context.Background(), upd)
	if err != nil {
		t.Fatalf("update SQL: %v", err)
	}
	nAPI, err := apiDB.UpdateWhere(context.Background(), "orders",
		plan.InInt(plan.Col("o_orderkey"), 3, 17, 2029),
		[]string{"o_orderpriority", "o_totalprice"},
		[]plan.Expr{
			plan.Str("1-URGENT"),
			plan.ToDecimal(plan.Add(plan.Dec("o_totalprice"), plan.Float(10.5))),
		})
	if err != nil {
		t.Fatalf("update API: %v", err)
	}
	if nSQL != nAPI || nSQL == 0 {
		t.Fatalf("update affected %d rows via SQL, %d via API", nSQL, nAPI)
	}
	assertSameResults(t, "after UPDATE", sqlDB, apiDB)

	// DELETE: the RF2 stream as SQL vs DeleteWhere with the same keys.
	keys := RF2Keys(d, 20, 4)
	var delSQL int64
	for _, s := range RF2SQL(keys) {
		n, err := sqlDB.ExecSQL(context.Background(), s)
		if err != nil {
			t.Fatalf("delete SQL: %v", err)
		}
		delSQL += n
	}
	nli, err := apiDB.DeleteWhere(context.Background(), "lineitem", plan.InInt(plan.Col("l_orderkey"), keys...))
	if err != nil {
		t.Fatal(err)
	}
	nord, err := apiDB.DeleteWhere(context.Background(), "orders", plan.InInt(plan.Col("o_orderkey"), keys...))
	if err != nil {
		t.Fatal(err)
	}
	if delSQL != nli+nord || delSQL == 0 {
		t.Fatalf("delete affected %d rows via SQL, %d via API", delSQL, nli+nord)
	}
	assertSameResults(t, "after DELETE", sqlDB, apiDB)
}

// TestUpdateWidensMinMax moves a MinMax-indexed date column far outside its
// block's range and checks that a subsequent range query — whose derived
// skip hint discards every block by its summary — still sees the new values:
// §6's claim that skipping stays correct under updates. The summaries
// describe the stable image; the scan keeps the rows a modify sets the
// column of, and decides their spans by the kernel, not the summary.
func TestUpdateWidensMinMax(t *testing.T) {
	d := Generate(0.002, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	n, err := db.ExecSQL(context.Background(), "update lineitem set l_shipdate = date '2099-01-01' where l_orderkey = 5")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("update matched no rows")
	}
	// Sanity: the query's skip hint reaches the scan (generated data ends
	// in 1998, so every block's summary excludes it).
	rows, err := db.QuerySQL("select count(*) as n from lineitem where l_shipdate >= date '2098-12-31'")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0].(int64); got != n {
		t.Fatalf("range query found %d rows after update, want %d (a modified row skipped by its block's MinMax summary?)", got, n)
	}
}

// TestUpdateKeepsSkippedBlocksSkipped moves three rows' l_shipdate to 2099,
// outside every block's summary, and counts January 1994 with the block cache
// off: the count reads the blocks it read before the UPDATE, no more. A
// modified row's new value is held against the skip bound, and 2099 is
// outside January 1994, so the blocks holding the rows stay skipped.
func TestUpdateKeepsSkippedBlocksSkipped(t *testing.T) {
	db, err := vectorh.Open(vectorh.Config{ // newDB's, without the block cache
		Nodes:           []string{"n1", "n2", "n3"},
		ThreadsPerNode:  2,
		BlockSize:       1 << 18,
		Format:          colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:        16 << 10,
		BlockCacheBytes: -1, // every block read counts
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadIntoEngine(db.Engine, Generate(0.01, 7), 6); err != nil {
		t.Fatal(err)
	}
	count := func() (n, blocks int64) {
		t.Helper()
		s0 := db.Engine.ScanStats()
		rows, err := db.QuerySQL("select count(*) as n from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-02-01'")
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].(int64), db.Engine.ScanStats().BlocksRead - s0.BlocksRead
	}
	n0, blocks0 := count()
	if n0 == 0 || blocks0 == 0 {
		t.Fatalf("before the update: %d rows from %d blocks", n0, blocks0)
	}
	n, err := db.ExecSQL(context.Background(), "update lineitem set l_shipdate = date '2099-01-01' where l_orderkey = 5")
	if err != nil || n != 3 {
		t.Fatalf("update: %d rows, %v", n, err)
	}
	n1, blocks1 := count()
	t.Logf("January 1994: %d rows from %d blocks before the update, %d rows from %d blocks after", n0, blocks0, n1, blocks1)
	if n1 > n0 || blocks1 != blocks0 {
		t.Errorf("after the update: %d rows from %d blocks, before it %d rows from %d blocks", n1, blocks1, n0, blocks0)
	}
}

// TestDeleteAllThenReinsert empties a replicated table through SQL and
// re-inserts the original rows, checking the table and a join over it
// return to their initial state (exercising delete-everything, tail
// re-inserts and log-shipped replicated commits).
func TestDeleteAllThenReinsert(t *testing.T) {
	d := Generate(0.002, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	before, err := db.QuerySQL("select r_regionkey, r_name from region order by r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	q5Before, err := db.QuerySQL(SQLQueries[5])
	if err != nil {
		t.Fatal(err)
	}

	n, err := db.ExecSQL(context.Background(), "delete from region")
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("deleted %d rows from region, want 5", n)
	}
	rows, err := db.QuerySQL("select count(*) as n from region")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0].(int64); got != 0 {
		t.Fatalf("region has %d rows after DELETE all", got)
	}
	if q5, err := db.QuerySQL(SQLQueries[5]); err != nil {
		t.Fatal(err)
	} else if len(q5) != 0 {
		t.Fatalf("Q5 returned %d rows with region empty", len(q5))
	}

	for _, s := range InsertSQL("region", RegionSchema, d.Tables["region"], 2) {
		if _, err := db.ExecSQL(context.Background(), s); err != nil {
			t.Fatalf("re-insert: %v", err)
		}
	}
	after, err := db.QuerySQL("select r_regionkey, r_name from region order by r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("region after re-insert:\n got  %v\n want %v", after, before)
	}
	q5After, err := db.QuerySQL(SQLQueries[5])
	if err != nil {
		t.Fatal(err)
	}
	na, nb := normalize(q5After), normalize(q5Before)
	if strings.Join(na, "\n") != strings.Join(nb, "\n") {
		t.Fatalf("Q5 after delete-all + re-insert differs:\n got  %v\n want %v", na, nb)
	}
}

// TestOutOfOrderInsert inserts a lineitem row whose l_orderkey lies below its
// partition's highest key, so it lands at the partition's tail after larger
// keys. Nothing may rely on lineitem's clustered order after that: a merge
// join would drop the row, and an ordered aggregation would split its order
// into two groups.
func TestOutOfOrderInsert(t *testing.T) {
	d := Generate(0.01, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	li := d.Tables["lineitem"]
	first := &vector.Batch{Vecs: li.Vecs, Sel: []int32{0}}
	for _, s := range InsertSQL("lineitem", LineitemSchema, first, 1) {
		if _, err := db.ExecSQL(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	count := func(q string) int64 {
		t.Helper()
		rows, err := db.QuerySQL(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].(int64)
	}
	total := count("select count(*) as n from lineitem")
	if total != int64(li.Len())+1 {
		t.Fatalf("lineitem holds %d rows, want %d", total, li.Len()+1)
	}
	if got := count("select count(*) as n from lineitem join orders on l_orderkey = o_orderkey"); got != total {
		t.Fatalf("lineitem join orders kept %d of %d rows", got, total)
	}
	rows, err := db.QuerySQL("select l_orderkey, count(*) as n from lineitem group by l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		k := r[0].(int64)
		if seen[k] {
			t.Fatalf("order %d forms two groups", k)
		}
		seen[k] = true
	}
	if want := d.Tables["orders"].Len(); len(rows) != want {
		t.Fatalf("group by l_orderkey gave %d groups, want %d", len(rows), want)
	}
}
