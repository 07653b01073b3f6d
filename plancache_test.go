package vectorh_test

import (
	"context"
	"fmt"
	"testing"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
)

func openTPCH(t *testing.T, sf float64) (*vectorh.DB, *tpch.Data) {
	t.Helper()
	db, err := vectorh.Open(vectorh.Config{
		Nodes:          []string{"pc-n1", "pc-n2", "pc-n3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := tpch.Generate(sf, 7)
	if err := tpch.LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	return db, d
}

// TestPlanCacheInvalidationOnDML checks the cache's consistency contract:
// every DML commit bumps the catalog epoch, the next compile flushes the
// cache, and cached queries always observe committed changes.
func TestPlanCacheInvalidationOnDML(t *testing.T) {
	db, _ := openTPCH(t, 0.005)
	q := "select count(*) from region"

	count := func() int64 {
		rows, err := db.QuerySQL(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].(int64)
	}
	base := count()
	count() // second run: cache hit
	s := db.PlanCacheStats()
	if s.Hits < 1 || s.Misses < 1 {
		t.Fatalf("warmup counters: %+v", s)
	}

	epoch0 := db.Engine.CatalogEpoch()
	if _, err := db.ExecSQL(context.Background(), "insert into region (r_regionkey, r_name, r_comment) values (77, 'LEMURIA', 'epoch test')"); err != nil {
		t.Fatal(err)
	}
	if db.Engine.CatalogEpoch() == epoch0 {
		t.Fatal("INSERT did not bump catalog epoch")
	}
	if got := count(); got != base+1 {
		t.Fatalf("cached query returned %d after insert, want %d", got, base+1)
	}
	s1 := db.PlanCacheStats()
	if s1.Invalidations <= s.Invalidations {
		t.Fatalf("insert did not invalidate: %+v -> %+v", s, s1)
	}

	epoch1 := db.Engine.CatalogEpoch()
	if _, err := db.ExecSQL(context.Background(), "update region set r_comment = 'updated' where r_regionkey = 77"); err != nil {
		t.Fatal(err)
	}
	if db.Engine.CatalogEpoch() == epoch1 {
		t.Fatal("UPDATE did not bump catalog epoch")
	}

	epoch2 := db.Engine.CatalogEpoch()
	if _, err := db.ExecSQL(context.Background(), "delete from region where r_regionkey = 77"); err != nil {
		t.Fatal(err)
	}
	if db.Engine.CatalogEpoch() == epoch2 {
		t.Fatal("DELETE did not bump catalog epoch")
	}
	if got := count(); got != base {
		t.Fatalf("cached query returned %d after delete, want %d", got, base)
	}
}

// TestPlanCacheParityAcrossRefresh executes a query mix cached and freshly
// compiled, interleaved with the TPC-H refresh functions (RF1 inserts, RF2
// deletes), asserting row-identical results at every step.
func TestPlanCacheParityAcrossRefresh(t *testing.T) {
	db, d := openTPCH(t, 0.005)
	queries := []string{
		tpch.SQLQueries[1],
		tpch.SQLQueries[6],
		"select count(*), sum(l_quantity) from lineitem",
		"select count(*) from orders",
	}

	fresh := func(q string) []string {
		n, err := sql.Compile(q, db.Engine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Run(context.Background(), n, core.QueryOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return normRowsT(res.Rows)
	}
	cached := func(q string) []string {
		rows, err := db.QuerySQL(q)
		if err != nil {
			t.Fatal(err)
		}
		return normRowsT(rows)
	}
	checkAll := func(stage string) {
		for i, q := range queries {
			cached(q) // populate (or re-populate after a flush)
			c, f := cached(q), fresh(q)
			if len(c) != len(f) {
				t.Fatalf("%s Q[%d]: cached %d rows, fresh %d", stage, i, len(c), len(f))
			}
			for j := range c {
				if c[j] != f[j] {
					t.Fatalf("%s Q[%d] row %d: cached %q fresh %q", stage, i, j, c[j], f[j])
				}
			}
		}
	}

	checkAll("initial")

	keys := tpch.RF2Keys(d, 20, 3)
	for _, stmt := range tpch.RF1SQL(d, 20, 3) {
		if _, err := db.ExecSQL(context.Background(), stmt); err != nil {
			t.Fatalf("RF1: %v", err)
		}
	}
	checkAll("after RF1")

	for _, stmt := range tpch.RF2SQL(keys) {
		if _, err := db.ExecSQL(context.Background(), stmt); err != nil {
			t.Fatalf("RF2: %v", err)
		}
	}
	checkAll("after RF2")

	if s := db.PlanCacheStats(); s.Hits == 0 || s.Invalidations == 0 {
		t.Fatalf("refresh parity ran without exercising the cache: %+v", s)
	}
}

func normRowsT(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, v := range row {
			if f, ok := v.(float64); ok {
				s += fmt.Sprintf("%.6g|", f)
			} else {
				s += fmt.Sprintf("%v|", v)
			}
		}
		out[i] = s
	}
	return out
}
