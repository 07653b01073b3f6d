package rewriter

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vectorh/internal/exec"
	"vectorh/internal/mpi"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// fakeCat describes two co-partitioned fact tables and one replicated
// dimension, mirroring the lineitem/orders/supplier shape of Figure 5.
type fakeCat struct{}

func (fakeCat) Table(name string) (TableInfo, error) {
	switch name {
	case "fact": // like lineitem: partitioned + clustered on fk
		return TableInfo{
			Name: "fact",
			Schema: vector.Schema{
				{Name: "f_ok", Type: vector.TInt64},
				{Name: "f_sk", Type: vector.TInt64},
				{Name: "f_val", Type: vector.TFloat64},
			},
			PartitionKey: "f_ok", Partitions: 4, ClusteredOn: "f_ok",
		}, nil
	case "head": // like orders: partitioned + clustered on pk
		return TableInfo{
			Name: "head",
			Schema: vector.Schema{
				{Name: "h_ok", Type: vector.TInt64},
				{Name: "h_date", Type: vector.TDate},
			},
			PartitionKey: "h_ok", Partitions: 4, ClusteredOn: "h_ok",
		}, nil
	case "dim": // like supplier: replicated
		return TableInfo{
			Name: "dim",
			Schema: vector.Schema{
				{Name: "d_sk", Type: vector.TInt64},
				{Name: "d_name", Type: vector.TString},
			},
			PartitionKey: "", Partitions: 0,
		}, nil
	}
	return TableInfo{}, fmt.Errorf("no table %s", name)
}

func (fakeCat) TableRows(name string) (int64, error) {
	switch name {
	case "fact":
		return 4000, nil
	case "head":
		return 1000, nil
	case "dim":
		return 10, nil
	}
	return 0, fmt.Errorf("no table %s", name)
}

// ColumnRange reports no ranges: every filter conjunct is charged 1/3.
func (fakeCat) ColumnRange(string, string) (lo, hi int64, ok bool) { return 0, 0, false }

// fakeProvider serves deterministic in-memory data. fact has 4000 rows
// (f_ok = i%1000, f_sk = i%10, f_val = 1); head has 1000 rows (h_ok unique);
// dim has 10 rows.
type fakeProvider struct {
	nodes int
	// scansByNode counts partition scans instantiated per node.
	scans []int
}

func (p *fakeProvider) ResponsibleParts(table string, node int) []int {
	// 4 partitions round-robin over nodes.
	var parts []int
	for i := 0; i < 4; i++ {
		if i%p.nodes == node {
			parts = append(parts, i)
		}
	}
	return parts
}

func (p *fakeProvider) PartitionScan(_ context.Context, spec ScanSpec, part, node int) (exec.Operator, error) {
	p.scans[node]++
	schema, rows := p.tableData(spec.Table)
	// Partition by first column % 4.
	filtered := [][]any{}
	for _, r := range rows {
		if int(r[0].(int64))%4 == part {
			filtered = append(filtered, r)
		}
	}
	// Clustered tables are ordered on their key.
	sort.Slice(filtered, func(i, j int) bool { return filtered[i][0].(int64) < filtered[j][0].(int64) })
	return p.source(schema, spec, filtered), nil
}

func (p *fakeProvider) ReplicatedScan(_ context.Context, spec ScanSpec, node int) (exec.Operator, error) {
	schema, rows := p.tableData(spec.Table)
	return p.source(schema, spec, rows), nil
}

func (p *fakeProvider) tableData(table string) (vector.Schema, [][]any) {
	cat := fakeCat{}
	info, _ := cat.Table(table)
	var rows [][]any
	switch table {
	case "fact":
		for i := 0; i < 4000; i++ {
			rows = append(rows, []any{int64(i % 1000), int64(i % 10), float64(1)})
		}
	case "head":
		for i := 0; i < 1000; i++ {
			rows = append(rows, []any{int64(i), vector.MustDate("1995-01-01") + int32(i%100)})
		}
	case "dim":
		for i := 0; i < 10; i++ {
			rows = append(rows, []any{int64(i), fmt.Sprintf("dim-%d", i)})
		}
	}
	return info.Schema, rows
}

// source serves the projection of rows and honours the provider contract:
// a scan handed a Filter returns exactly the rows satisfying it.
func (p *fakeProvider) source(schema vector.Schema, spec ScanSpec, rows [][]any) exec.Operator {
	cols := spec.Cols
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = schema.Index(c)
	}
	sub := make(vector.Schema, len(cols))
	for i, c := range cols {
		f, _ := schema.Field(c)
		sub[i] = f
	}
	b := vector.NewBatchForSchema(sub, len(rows))
	for _, r := range rows {
		vals := make([]any, len(idx))
		for i, ix := range idx {
			vals[i] = r[ix]
		}
		b.AppendRow(vals...)
	}
	var op exec.Operator = &exec.BatchSource{Batches: []*vector.Batch{b}}
	if spec.Filter != nil {
		op = &exec.Select{Child: op, Pred: spec.Filter}
	}
	return op
}

func run(t *testing.T, n plan.Node, opts Options) ([][]any, *fakeProvider, string) {
	t.Helper()
	p, err := Rewrite(n, fakeCat{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prov := &fakeProvider{nodes: opts.Nodes, scans: make([]int, opts.Nodes)}
	env := &Env{
		Net: mpi.NewNetwork(opts.Nodes), Provider: prov,
		Nodes: opts.Nodes, Threads: opts.Threads, MsgBytes: 4096,
	}
	streams, err := Instantiate(p, env)
	if err != nil {
		t.Fatalf("instantiate: %v\n%s", err, Explain(p))
	}
	// The root must be exactly one stream at the master.
	var root exec.Operator
	count := 0
	for n := range streams {
		for _, s := range streams[n] {
			root = s
			count++
		}
	}
	if count != 1 {
		t.Fatalf("root has %d streams, want 1\n%s", count, Explain(p))
	}
	rows, err := exec.Collect(root)
	if err != nil {
		t.Fatalf("collect: %v\n%s", err, Explain(p))
	}
	return rows, prov, Explain(p)
}

func TestRewriteSimpleScanGather(t *testing.T) {
	rows, _, _ := run(t, plan.Scan("fact", "f_ok"), DefaultOptions(2, 2))
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRewriteFilterProject(t *testing.T) {
	q := plan.Project(
		plan.Filter(plan.Scan("fact", "f_ok", "f_val"), plan.LT(plan.Col("f_ok"), plan.Int(10))),
		plan.As("x", plan.Mul(plan.Col("f_ok"), plan.Int(2))),
	)
	rows, _, _ := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 40 { // 10 keys × 4 copies
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRewriteColocatedMergeJoin(t *testing.T) {
	q := plan.Join(plan.InnerJoin, plan.Scan("fact", "f_ok", "f_val"), plan.Scan("head", "h_ok", "h_date"),
		[]string{"f_ok"}, []string{"h_ok"})
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(explain, "MergeJoin[0,co-located]") {
		t.Fatalf("expected a co-located merge join:\n%s", explain)
	}
	if strings.Contains(explain, "DXchgHashSplit") {
		t.Fatalf("co-located join should not exchange:\n%s", explain)
	}
}

func TestRewriteLocalJoinDisabledUsesExchange(t *testing.T) {
	opts := DefaultOptions(2, 2)
	opts.Disable = LocalJoin
	q := plan.Join(plan.InnerJoin, plan.Scan("fact", "f_ok", "f_val"), plan.Scan("head", "h_ok", "h_date"),
		[]string{"f_ok"}, []string{"h_ok"})
	rows, _, explain := run(t, q, opts)
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(explain, "DXchgHashSplit") && !strings.Contains(explain, "DXchgBroadcast") {
		t.Fatalf("expected exchanges without the local-join rule:\n%s", explain)
	}
}

// TestRewriteBroadcastChoice: a join whose sides are not co-located
// replicates its build side at run time when that ships fewer bytes than
// repartitioning both sides, and only a bounded build to a distributed probe
// with the ReplicateBuild rule on.
func TestRewriteBroadcastChoice(t *testing.T) {
	fact := func() plan.Node { return plan.Scan("fact", "f_ok", "f_sk", "f_val") }
	head := func() plan.Node { return plan.Scan("head", "h_ok", "h_date") }
	for _, tc := range []struct {
		name      string
		q         plan.Node
		disable   Rules
		nodes     int
		rows      int
		broadcast bool
	}{
		{"small partitioned build", plan.Join(plan.InnerJoin, fact(), head(), []string{"f_sk"}, []string{"h_ok"}),
			0, 2, 4000, true},
		{"large partitioned build", plan.Join(plan.InnerJoin, head(), fact(), []string{"h_ok"}, []string{"f_sk"}),
			0, 2, 4000, false},
		{"join output build", plan.Join(plan.InnerJoin, fact(),
			plan.Join(plan.InnerJoin, head(), plan.Scan("dim", "d_sk"), []string{"h_ok"}, []string{"d_sk"}),
			[]string{"f_sk"}, []string{"h_ok"}), 0, 2, 4000, false},
		{"replicated probe", plan.Join(plan.InnerJoin, plan.Scan("dim", "d_sk", "d_name"), head(), []string{"d_sk"}, []string{"h_ok"}),
			0, 2, 10, false},
		{"rule off", plan.Join(plan.InnerJoin, fact(), head(), []string{"f_sk"}, []string{"h_ok"}),
			ReplicateBuild, 2, 4000, false},
		// Node 4 holds no fact partition: it gets no copy of the build.
		{"one-row build, probe-less node", plan.Join(plan.InnerJoin, fact(),
			plan.Aggregate(head(), nil, plan.A("m", plan.Max, plan.Col("h_ok"))), []string{"f_ok"}, []string{"m"}),
			0, 5, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(tc.nodes, 2)
			opts.Disable = tc.disable
			rows, _, explain := run(t, tc.q, opts)
			if len(rows) != tc.rows {
				t.Errorf("rows = %d, want %d\n%s", len(rows), tc.rows, explain)
			}
			if got := strings.Contains(explain, "DXchgBroadcast"); got != tc.broadcast {
				t.Errorf("broadcast = %v, want %v:\n%s", got, tc.broadcast, explain)
			}
		})
	}
}

func TestRewriteReplicatedBuildJoin(t *testing.T) {
	q := plan.Join(plan.InnerJoin, plan.Scan("fact", "f_sk", "f_val"), plan.Scan("dim", "d_sk", "d_name"),
		[]string{"f_sk"}, []string{"d_sk"})
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 4000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(explain, "replicated-build") {
		t.Fatalf("expected replicated build:\n%s", explain)
	}
	if strings.Contains(explain, "DXchgHashSplit") {
		t.Fatalf("replicated build should not exchange:\n%s", explain)
	}
	// Disabling the rule falls back to exchanges, same answer.
	opts := DefaultOptions(2, 2)
	opts.Disable = ReplicateBuild
	rows2, _, explain2 := run(t, q, opts)
	if len(rows2) != 4000 {
		t.Fatalf("rows = %d", len(rows2))
	}
	if !strings.Contains(explain2, "DXchgHashSplit") {
		t.Fatalf("expected exchange without replicate-build:\n%s", explain2)
	}
}

func TestRewriteAggregationPartitionLocal(t *testing.T) {
	// GROUP BY on the partition key: no exchange of data rows needed
	// (only the final gather).
	q := plan.Aggregate(plan.Scan("fact", "f_ok", "f_val"), []string{"f_ok"},
		plan.A("total", plan.Sum, plan.Col("f_val")))
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 1000 {
		t.Fatalf("groups = %d", len(rows))
	}
	if strings.Contains(explain, "DXchgHashSplit") {
		t.Fatalf("partition-local aggregation should not hash-exchange:\n%s", explain)
	}
	for _, r := range rows {
		if r[1].(float64) != 4 {
			t.Fatalf("group %v", r)
		}
	}
}

// TestRewriteOrderedAggregation: a stream ordered on its one group key
// aggregates in that order and stays ordered through a rename, so a
// co-located join above it merges; a wider key set hashes.
func TestRewriteOrderedAggregation(t *testing.T) {
	counts := plan.Project(
		plan.Aggregate(plan.Scan("fact", "f_ok", "f_val"), []string{"f_ok"}, plan.AStar("n")),
		plan.As("k", plan.Col("f_ok")), plan.As("n", plan.Col("n")))
	q := plan.Join(plan.InnerJoin, plan.Scan("head", "h_ok", "h_date"), counts, []string{"h_ok"}, []string{"k"})
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if !strings.Contains(explain, "Aggr(ordered)") || !strings.Contains(explain, "MergeJoin[0,co-located]") ||
		strings.Contains(explain, "DXchgHashSplit") {
		t.Fatalf("expected an ordered aggregation under a merge join:\n%s", explain)
	}
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[0].(int64) != r[2].(int64) || r[3].(int64) != 4 {
			t.Fatalf("row %v", r)
		}
	}

	wide := plan.Aggregate(plan.Scan("fact", "f_ok", "f_sk"), []string{"f_ok", "f_sk"}, plan.AStar("n"))
	rows, _, explain = run(t, wide, DefaultOptions(2, 2))
	if !strings.Contains(explain, "Aggr(direct)") || strings.Contains(explain, "Aggr(ordered)") {
		t.Fatalf("two group keys must hash:\n%s", explain)
	}
	if len(rows) != 1000 {
		t.Fatalf("groups = %d", len(rows))
	}
}

// TestRewriteMergesOnJoinedEqualKey: an inner merge join makes its right key
// another name for the order column, so a join above it on that key merges
// too (Q02's and Q18's shape), through a rename; a left outer join's right
// key is no such name.
func TestRewriteMergesOnJoinedEqualKey(t *testing.T) {
	keys := plan.Project(
		plan.Filter(plan.Aggregate(plan.Scan("fact", "f_ok"), []string{"f_ok"}, plan.AStar("n")),
			plan.LT(plan.Col("f_ok"), plan.Int(100))),
		plan.As("k", plan.Col("f_ok")))
	for _, tc := range []struct {
		kind  plan.JoinKind
		key   string
		merge bool
	}{
		{plan.InnerJoin, "h_ok", true},
		{plan.InnerJoin, "x_ok", true},
		{plan.LeftOuterJoin, "x_ok", false},
	} {
		facts := plan.Join(tc.kind, plan.Scan("fact", "f_ok", "f_val"), plan.Scan("head", "h_ok", "h_date"),
			[]string{"f_ok"}, []string{"h_ok"})
		renamed := plan.Project(facts, plan.As("x_ok", plan.Col("h_ok")), plan.As("f_val", plan.Col("f_val")))
		var left plan.Node = facts
		if tc.key == "x_ok" {
			left = renamed
		}
		q := plan.Join(plan.SemiJoin, left, keys, []string{tc.key}, []string{"k"})
		rows, _, explain := run(t, q, DefaultOptions(2, 2))
		if strings.Contains(explain, "MergeJoin[2,co-located]") != tc.merge ||
			strings.Contains(explain, "DXchgHashSplit") == tc.merge {
			t.Fatalf("join type %d, semi join on %s: merged = %v expected:\n%s", tc.kind, tc.key, tc.merge, explain)
		}
		if len(rows) != 400 {
			t.Fatalf("join type %d, semi join on %s: rows = %d, want 400", tc.kind, tc.key, len(rows))
		}
	}
}

// TestRewriteReorderedInputHashes: a gather interleaves the partitions and a
// sort or top-N puts rows in another key's order, so an aggregate on the
// clustered key above either hashes.
func TestRewriteReorderedInputHashes(t *testing.T) {
	scan := func() plan.Node { return plan.Scan("fact", "f_ok", "f_sk") }
	for name, tc := range map[string]struct {
		child      plan.Node
		rows, each int
	}{
		"limit":         {plan.Limit(scan(), 4000), 1000, 4},
		"order by":      {plan.OrderBy(scan(), plan.Asc(plan.Col("f_sk"))), 1000, 4},
		"top n":         {plan.Top(scan(), 2000, plan.Asc(plan.Col("f_sk"))), 500, 4},
		"limit of sort": {plan.Limit(plan.OrderBy(scan(), plan.Desc(plan.Col("f_sk"))), 2000), 500, 4},
	} {
		q := plan.Aggregate(tc.child, []string{"f_ok"}, plan.AStar("n"))
		rows, _, explain := run(t, q, DefaultOptions(2, 2))
		if strings.Contains(explain, "Aggr(ordered)") {
			t.Fatalf("%s: an aggregate over reordered input must hash:\n%s", name, explain)
		}
		seen := make(map[int64]bool, len(rows))
		for _, r := range rows {
			if k := r[0].(int64); seen[k] || r[1].(int64) != int64(tc.each) {
				t.Fatalf("%s: row %v (seen before: %v)", name, r, seen[k])
			}
			seen[r[0].(int64)] = true
		}
		if len(rows) != tc.rows {
			t.Fatalf("%s: groups = %d, want %d", name, len(rows), tc.rows)
		}
	}
}

func TestRewriteAggregationPartialFinal(t *testing.T) {
	// GROUP BY on a non-partition column: partial + exchange + final.
	q := plan.Aggregate(plan.Scan("fact", "f_sk", "f_val"), []string{"f_sk"},
		plan.A("total", plan.Sum, plan.Col("f_val")),
		plan.AStar("cnt"),
		plan.A("m", plan.Avg, plan.Col("f_val")))
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	if !strings.Contains(explain, "Aggr(partial)") || !strings.Contains(explain, "Aggr(final)") {
		t.Fatalf("expected partial+final aggregation:\n%s", explain)
	}
	for _, r := range rows {
		if r[1].(float64) != 400 || r[2].(int64) != 400 || r[3].(float64) != 1 {
			t.Fatalf("group %v", r)
		}
	}
	// Without the rule: rows are exchanged and aggregated once.
	opts := DefaultOptions(2, 2)
	opts.Disable = PartialAgg
	rows2, _, explain2 := run(t, q, opts)
	if len(rows2) != 10 {
		t.Fatalf("groups = %d", len(rows2))
	}
	if strings.Contains(explain2, "Aggr(partial)") {
		t.Fatalf("partial agg should be disabled:\n%s", explain2)
	}
}

func TestRewriteGlobalAggregate(t *testing.T) {
	q := plan.Aggregate(plan.Scan("fact", "f_val"), nil,
		plan.A("total", plan.Sum, plan.Col("f_val")), plan.AStar("cnt"))
	rows, _, _ := run(t, q, DefaultOptions(3, 2))
	if len(rows) != 1 || rows[0][0].(float64) != 4000 || rows[0][1].(int64) != 4000 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRewriteCountDistinctForcesRowExchange(t *testing.T) {
	q := plan.Aggregate(plan.Scan("fact", "f_sk", "f_ok"), []string{"f_sk"},
		plan.A("d", plan.CountDistinct, plan.Col("f_ok")))
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	if strings.Contains(explain, "Aggr(partial)") {
		t.Fatalf("count distinct must not use partial aggregation:\n%s", explain)
	}
	for _, r := range rows {
		if r[1].(int64) != 100 {
			t.Fatalf("group %v", r)
		}
	}
}

func TestRewriteTopNWithPartials(t *testing.T) {
	q := plan.Top(plan.Scan("fact", "f_ok", "f_val"), 5, plan.Desc(plan.Col("f_ok")))
	rows, _, explain := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].(int64) != 999 {
		t.Fatalf("rows = %v", rows)
	}
	if !strings.Contains(explain, "TopN(partial)") || !strings.Contains(explain, "TopN(final)") {
		t.Fatalf("expected partial/final TopN:\n%s", explain)
	}
}

func TestRewriteOrderByAndLimit(t *testing.T) {
	q := plan.Limit(plan.OrderBy(plan.Scan("dim", "d_sk", "d_name"), plan.Asc(plan.Col("d_name"))), 3)
	rows, _, _ := run(t, q, DefaultOptions(2, 2))
	if len(rows) != 3 || rows[0][1].(string) != "dim-0" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRewriteSemiAntiJoin(t *testing.T) {
	semi := plan.Join(plan.SemiJoin, plan.Scan("head", "h_ok"),
		plan.Filter(plan.Scan("fact", "f_ok"), plan.LT(plan.Col("f_ok"), plan.Int(100))),
		[]string{"h_ok"}, []string{"f_ok"})
	rows, _, _ := run(t, semi, DefaultOptions(2, 2))
	if len(rows) != 100 {
		t.Fatalf("semi rows = %d", len(rows))
	}
	anti := plan.Join(plan.AntiJoin, plan.Scan("head", "h_ok"),
		plan.Filter(plan.Scan("fact", "f_ok"), plan.LT(plan.Col("f_ok"), plan.Int(100))),
		[]string{"h_ok"}, []string{"f_ok"})
	rows, _, _ = run(t, anti, DefaultOptions(2, 2))
	if len(rows) != 900 {
		t.Fatalf("anti rows = %d", len(rows))
	}
}

func TestRewriteLeftOuterJoinMatchedColumn(t *testing.T) {
	// head rows with no fact rows >= 1000 never match.
	q := plan.Join(plan.LeftOuterJoin, plan.Scan("head", "h_ok"),
		plan.Filter(plan.Scan("fact", "f_ok", "f_val"), plan.LT(plan.Col("f_ok"), plan.Int(2))),
		[]string{"h_ok"}, []string{"f_ok"})
	rows, _, _ := run(t, q, DefaultOptions(2, 2))
	matched := 0
	for _, r := range rows {
		if r[len(r)-1].(bool) {
			matched++
		}
	}
	if matched != 8 { // keys 0,1 × 4 copies
		t.Fatalf("matched = %d of %d", matched, len(rows))
	}
	if len(rows) != 8+998 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestRewriteReplicatedJoinReplicated(t *testing.T) {
	q := plan.Join(plan.InnerJoin, plan.Scan("dim", "d_sk", "d_name"), plan.Scan("dim", "d_sk"),
		[]string{"d_sk"}, []string{"d_sk"})
	rows, _, explain := run(t, q, DefaultOptions(3, 2))
	if len(rows) != 10 {
		t.Fatalf("rows = %d\n%s", len(rows), explain)
	}
	if strings.Contains(explain, "DXchg") && strings.Count(explain, "DXchg") > 0 {
		// Only the final gather may appear; replicated⋈replicated must
		// not hash-exchange.
		if strings.Contains(explain, "DXchgHashSplit") {
			t.Fatalf("replicated join should be local:\n%s", explain)
		}
	}
}

func TestExplainContainsScans(t *testing.T) {
	p, err := Rewrite(plan.Scan("fact", "f_ok"), fakeCat{}, DefaultOptions(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(p), "MScan[fact]") {
		t.Fatalf("explain:\n%s", Explain(p))
	}
}
