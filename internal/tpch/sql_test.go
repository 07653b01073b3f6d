package tpch

import (
	"fmt"
	"sort"
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

// TestSQLQueriesMatchBuilders cross-validates the SQL text front-end: every
// query in SQLQueries must return rows identical to its hand-built plan
// counterpart when run through vectorh.DB.QuerySQL on the same engine.
func TestSQLQueriesMatchBuilders(t *testing.T) {
	if len(SQLQueries) != NumQueries {
		t.Fatalf("want SQL text for all %d TPC-H queries, have %d", NumQueries, len(SQLQueries))
	}
	d := Generate(0.004, 7)
	db := newDB(t)
	if err := LoadIntoEngine(db.Engine, d, 6); err != nil {
		t.Fatal(err)
	}
	var qs []int
	for q := range SQLQueries {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			pb, err := BuildQuery(q, db.Engine)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want, err := db.Query(pb)
			if err != nil {
				t.Fatalf("builder plan: %v", err)
			}
			got, err := db.QuerySQL(SQLQueries[q])
			if err != nil {
				t.Fatalf("QuerySQL: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("rows: sql %d vs builder %d", len(got), len(want))
			}
			ng, nw := normalize(got), normalize(want)
			for i := range ng {
				if ng[i] != nw[i] {
					t.Fatalf("row %d differs:\n sql     %s\n builder %s", i, ng[i], nw[i])
				}
			}
		})
	}
}

// TestSQLExplain sanity-checks that SQL-born plans run through the same
// parallel rewriting as builder plans (exchanges present) and that MinMax
// skip hints survive lowering into the scans.
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
		{"Q01", SQLQueries[1], "Aggr(partial)[2 keys,11 aggs,8 prims]"},
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
