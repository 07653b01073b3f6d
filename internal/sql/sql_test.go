package sql

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// newEngine starts a 3-node engine with a deterministic sales/regions
// physical design.
func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{
		Nodes:          []string{"n1", "n2", "n3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	salesSchema := vector.Schema{
		{Name: "id", Type: vector.TInt64},
		{Name: "region_id", Type: vector.TInt64},
		{Name: "amount", Type: vector.TFloat64},
		{Name: "sold", Type: vector.TDate},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "sales", Schema: salesSchema, PartitionKey: "id", Partitions: 6,
	}); err != nil {
		t.Fatal(err)
	}
	sales := vector.NewBatchForSchema(salesSchema, 400)
	for i := 0; i < 400; i++ {
		day := vector.MustDate("2020-01-01") + int32(i%90)
		sales.AppendRow(int64(i), int64(i%4), float64(i%100), day)
	}
	if err := e.Load("sales", []*vector.Batch{sales}); err != nil {
		t.Fatal(err)
	}

	regionSchema := vector.Schema{
		{Name: "rid", Type: vector.TInt64},
		{Name: "region_name", Type: vector.TString},
	}
	if err := e.CreateTable(rewriter.TableInfo{Name: "regions", Schema: regionSchema}); err != nil {
		t.Fatal(err)
	}
	regions := vector.NewBatchForSchema(regionSchema, 4)
	for i, name := range []string{"north", "east", "south", "west"} {
		regions.AppendRow(int64(i), name)
	}
	if err := e.Load("regions", []*vector.Batch{regions}); err != nil {
		t.Fatal(err)
	}
	return e
}

func runSQL(t *testing.T, e *core.Engine, q string) [][]any {
	t.Helper()
	n, err := Compile(q, e)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	res, err := e.Run(context.Background(), n, core.QueryOptions{}, nil)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return res.Rows
}

// TestEndToEnd runs SQL text through the whole stack: parse, bind, rewrite,
// distributed execution.
func TestEndToEnd(t *testing.T) {
	e := newEngine(t)

	rows := runSQL(t, e, "select count(*) from sales")
	if len(rows) != 1 || rows[0][0].(int64) != 400 {
		t.Fatalf("count(*) = %v, want 400", rows)
	}

	rows = runSQL(t, e, "select id, amount from sales where amount >= 98 order by id limit 3")
	want := [][]any{{int64(98), 98.0}, {int64(99), 99.0}, {int64(198), 98.0}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("filter+top = %v, want %v", rows, want)
	}

	// Date-range predicate (the scan skips on the bound derived from it).
	rows = runSQL(t, e,
		"select count(*) as n from sales where sold >= date '2020-01-01' and sold < date '2020-01-01' + interval '1' month")
	wantN := int64(0)
	jan31 := vector.MustDate("2020-01-31")
	for i := 0; i < 400; i++ {
		if vector.MustDate("2020-01-01")+int32(i%90) <= jan31 {
			wantN++
		}
	}
	if rows[0][0].(int64) != wantN {
		t.Fatalf("january rows = %v, want %d", rows[0][0], wantN)
	}

	// Join + group by + order by, validated against a Go-side computation.
	rows = runSQL(t, e, `
		select region_name, sum(amount) as total, count(*) as n
		from sales join regions on region_id = rid
		where amount > 10
		group by region_name
		order by total desc, region_name`)
	type acc struct {
		total float64
		n     int64
	}
	names := []string{"north", "east", "south", "west"}
	byRegion := map[string]*acc{}
	for i := 0; i < 400; i++ {
		amt := float64(i % 100)
		if amt <= 10 {
			continue
		}
		name := names[i%4]
		if byRegion[name] == nil {
			byRegion[name] = &acc{}
		}
		byRegion[name].total += amt
		byRegion[name].n++
	}
	if len(rows) != len(byRegion) {
		t.Fatalf("got %d groups, want %d", len(rows), len(byRegion))
	}
	for _, r := range rows {
		name := r[0].(string)
		if r[1].(float64) != byRegion[name].total || r[2].(int64) != byRegion[name].n {
			t.Fatalf("group %s = %v, want %+v", name, r, byRegion[name])
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].(float64) < rows[i][1].(float64) {
			t.Fatalf("not sorted desc by total: %v", rows)
		}
	}

	// IN over a float column runs as an equality chain.
	rows = runSQL(t, e, "select count(*) as n from sales where amount in (10, 20)")
	if rows[0][0].(int64) != 8 { // amounts cycle 0..99 over 400 rows
		t.Fatalf("IN over float = %v, want 8", rows[0][0])
	}

	// Aggregate-over-aggregate arithmetic in the select list.
	rows = runSQL(t, e, "select sum(amount) / count(*) as mean from sales")
	var sum float64
	for i := 0; i < 400; i++ {
		sum += float64(i % 100)
	}
	if got := rows[0][0].(float64); got != sum/400 {
		t.Fatalf("mean = %v, want %v", got, sum/400)
	}

	// An expression over aggregates means the same in the select list, in
	// HAVING and in ORDER BY — whatever node kinds it is built from. Region r
	// sums to 4800+100r; its last sale is on day 88 (r even) or 89 (r odd).
	last := func(r int64) int32 { return vector.MustDate("2020-01-01") + 88 + int32(r%2) }
	for _, c := range []struct {
		q    string
		want [][]any
	}{
		{"select region_id, case when sum(amount) > 4950 then 0 else 1 end as k from sales group by region_id order by k, region_id",
			[][]any{{int64(2), int64(0)}, {int64(3), int64(0)}, {int64(0), int64(1)}, {int64(1), int64(1)}}},
		{"select region_id, sum(amount) as total from sales group by region_id order by case when sum(amount) > 4950 then 0 else 1 end, region_id",
			[][]any{{int64(2), 5000.0}, {int64(3), 5100.0}, {int64(0), 4800.0}, {int64(1), 4900.0}}},
		{"select region_id, year(max(sold)) as y from sales group by region_id order by region_id",
			[][]any{{int64(0), int32(2020)}, {int64(1), int32(2020)}, {int64(2), int32(2020)}, {int64(3), int32(2020)}}},
		{"select region_id, max(sold) as last from sales group by region_id order by year(max(sold)), region_id desc",
			[][]any{{int64(3), last(3)}, {int64(2), last(2)}, {int64(1), last(1)}, {int64(0), last(0)}}},
		{"select region_id, sum(amount) between 4850 and 5050 as mid from sales group by region_id order by region_id",
			[][]any{{int64(0), false}, {int64(1), true}, {int64(2), true}, {int64(3), false}}},
		{"select region_id, sum(amount) as total from sales group by region_id order by sum(amount) between 4850 and 5050, region_id",
			[][]any{{int64(0), 4800.0}, {int64(3), 5100.0}, {int64(1), 4900.0}, {int64(2), 5000.0}}},
		{"select region_id, not sum(amount) > 4950 as low from sales group by region_id order by region_id",
			[][]any{{int64(0), true}, {int64(1), true}, {int64(2), false}, {int64(3), false}}},
		{"select region_id, sum(amount) as total from sales group by region_id order by not sum(amount) > 4950, region_id",
			[][]any{{int64(2), 5000.0}, {int64(3), 5100.0}, {int64(0), 4800.0}, {int64(1), 4900.0}}},
		// min/max return their argument's type: a date stays a date, through
		// the partial/final split, comparable to a date literal.
		{"select min(sold) as first, max(sold) as last from sales",
			[][]any{{vector.MustDate("2020-01-01"), last(1)}}},
		{"select region_id, max(sold) as last from sales group by region_id " +
			"having max(sold) >= date '2020-03-30' and year(max(sold)) = 2020 order by region_id",
			[][]any{{int64(1), last(1)}, {int64(3), last(3)}}},
	} {
		if rows := runSQL(t, e, c.q); !reflect.DeepEqual(rows, c.want) {
			t.Errorf("%s\n got  %v\n want %v", c.q, rows, c.want)
		}
	}
}

// TestExplainGolden locks the full distributed physical plan of a SQL
// aggregation query (stable: fixed data, fixed config). The WHERE clause sits
// directly on the sales scan, so no Select appears above it: the scan line
// shows the predicate it evaluates and the bound derived from it that it
// MinMax-skips on.
// The ~N rows annotations are the cost model's cardinality estimates; the
// join order the planner picks is auditable from them.
func TestExplainGolden(t *testing.T) {
	e := newEngine(t)
	n, err := Compile(`
		select region_name, sum(amount) as total
		from sales join regions on region_id = rid
		where sold >= date '2020-01-15'
		group by region_name
		order by total desc`, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Explain(n)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimLeft(`
Sort ~14 rows
  DXchgUnion->n0
    Project[2 exprs,0 prims] ~14 rows
      Aggr(final)[1 keys,1 aggs,0 prims]
        DXchgHashSplit
          Aggr(partial)[1 keys,1 aggs,0 prims]
            HashJoin[0,replicated-build] ~134 rows
              MScan[sales] (partitioned) filter(($2 >= 18276)) skip(sold in [18276,max]) ~134 rows
              MScan[regions] (replicated) ~4 rows
`, "\n")
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenMultiConjunct locks the plan of a scan-dominated query
// whose WHERE clause mixes conjuncts bounds are derived from (date range,
// float range, int IN list) with one that implies none (an arithmetic
// comparison). The scan evaluates all of them — there is no Select above it —
// and skips on the three derived bounds: closed intervals, the IN list as its
// envelope.
func TestExplainGoldenMultiConjunct(t *testing.T) {
	e := newEngine(t)
	n, err := Compile(`
		select count(*) as n from sales
		where sold >= date '2020-01-15' and sold < date '2020-02-15'
		  and amount >= 10 and amount < 95
		  and id in (1, 2, 3, 500)
		  and amount + 1 > 12`, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Explain(n)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimLeft(`
Project[1 exprs,0 prims] ~14 rows
  Aggr(final)[0 keys,1 aggs,0 prims]
    DXchgUnion->n0
      Aggr(partial)[0 keys,1 aggs,0 prims]
        MScan[sales] (partitioned) filter(($2 >= 18276) and ($2 < 18307) and ($1 >= 10) and ($1 < 95) and in($0,[1 2 3 500]) and (($1 + 1) > 12)) skip(sold in [18276,18306] & amount in [10,95] & id in [1,500]) ~134 rows
`, "\n")
	if got != want {
		t.Fatalf("explain mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
