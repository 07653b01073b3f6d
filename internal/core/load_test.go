package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vectorh/internal/hdfs"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// storageState is everything a load may change: per-partition metadata, the
// catalog row count and epoch, and the hdfs files with their sizes.
type storageState struct {
	metas []string
	rows  int64
	epoch int64
	files []string
}

func snapshotStorage(t *testing.T, e *Engine, table string) storageState {
	t.Helper()
	var s storageState
	for _, p := range e.tables[table].Parts {
		m, err := p.CurrentMeta().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		s.metas = append(s.metas, string(m))
	}
	rows, err := e.TableRows(table)
	if err != nil {
		t.Fatal(err)
	}
	s.rows, s.epoch = rows, e.CatalogEpoch()
	for _, f := range e.FS().List("/vectorh/") {
		size, _ := e.FS().Size(f)
		s.files = append(s.files, fmt.Sprintf("%s %d", f, size))
	}
	return s
}

func ordersBatch(lo, hi int) *vector.Batch {
	b := vector.NewBatchForSchema(ordersSchema, hi-lo)
	for i := lo; i < hi; i++ {
		b.AppendRow(int64(i), vector.MustDate("1995-01-01")+int32(i/11), float64(i))
	}
	return b
}

func scanOrderKeys(t *testing.T, e *Engine) []int64 {
	t.Helper()
	rows, err := queryRows(e, plan.Scan("orders", "o_orderkey"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = r[0].(int64)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TestFailedLoadLeavesNoTrace fails the writes of one partition out of four
// (its placement targets name no live datanode) and checks the load is
// all-or-nothing — on an empty table, and on top of an earlier load whose
// open chunk files the failed one had already appended to.
func TestFailedLoadLeavesNoTrace(t *testing.T) {
	e := testEngine(t, 3)
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "orders", Schema: ordersSchema,
		PartitionKey: "o_orderkey", Partitions: 4, ClusteredOn: "o_orderkey",
	}); err != nil {
		t.Fatal(err)
	}
	victim := e.tables["orders"].Parts[2]
	dir := victim.CurrentMeta().Dir()
	healthy := e.policy.get(dir)

	loaded := 0
	for _, n := range []int{3000, 2000} {
		before := snapshotStorage(t, e, "orders")
		b := ordersBatch(loaded, loaded+n)

		e.policy.set(dir, []string{"no-such-node"})
		err := e.Load("orders", []*vector.Batch{b})
		if err == nil || !strings.Contains(err.Error(), hdfs.ErrNoNodes.Error()) {
			t.Fatalf("load with partition 2 unwritable: err = %v, want %v", err, hdfs.ErrNoNodes)
		}
		if after := snapshotStorage(t, e, "orders"); !reflect.DeepEqual(before, after) {
			t.Fatalf("failed load left a trace:\nbefore %+v\nafter  %+v", before, after)
		}
		if got := len(scanOrderKeys(t, e)); got != loaded {
			t.Fatalf("after failed load: %d rows visible, want %d", got, loaded)
		}

		e.policy.set(dir, healthy)
		if err := e.Load("orders", []*vector.Batch{b}); err != nil {
			t.Fatalf("retry of the failed load: %v", err)
		}
		loaded += n
		after := snapshotStorage(t, e, "orders")
		if after.rows != int64(loaded) || after.epoch != before.epoch+1 {
			t.Fatalf("after retry: rows %d epoch %d, want rows %d epoch %d", after.rows, after.epoch, loaded, before.epoch+1)
		}
		keys := scanOrderKeys(t, e)
		if len(keys) != loaded {
			t.Fatalf("after retry: %d rows visible, want %d", len(keys), loaded)
		}
		for i, k := range keys {
			if k != int64(i) {
				t.Fatalf("after retry: key %d at position %d", k, i)
			}
		}
	}
}

// TestLoadRejectsMismatchedBatches: shape errors surface before anything is
// written, naming the table and the column.
func TestLoadRejectsMismatchedBatches(t *testing.T) {
	e := testEngine(t, 3)
	setupTables(t, e, 100)
	before := snapshotStorage(t, e, "orders")

	narrow := vector.NewBatch(vector.FromInt64([]int64{1}), vector.FromInt32([]int32{2}))
	err := e.Load("orders", []*vector.Batch{ordersBatch(100, 200), narrow})
	if err == nil || !strings.Contains(err.Error(), "orders") || !strings.Contains(err.Error(), "batch 1 has 2 columns") {
		t.Fatalf("column-count mismatch: err = %v", err)
	}
	wrongKind := vector.NewBatch(vector.FromInt64([]int64{1}), vector.FromInt32([]int32{2}), vector.FromInt64([]int64{3}))
	err = e.Load("orders", []*vector.Batch{wrongKind})
	if err == nil || !strings.Contains(err.Error(), "orders") || !strings.Contains(err.Error(), "o_total") {
		t.Fatalf("kind mismatch: err = %v", err)
	}
	if after := snapshotStorage(t, e, "orders"); !reflect.DeepEqual(before, after) {
		t.Fatal("a rejected load changed storage")
	}
}

// TestLoadSplitsBatchesLikeOneBatch: several batches — one of them behind a
// selection vector — load to the same bytes as their concatenation.
func TestLoadSplitsBatchesLikeOneBatch(t *testing.T) {
	load := func(batches ...*vector.Batch) []string {
		e := testEngine(t, 3)
		if err := e.CreateTable(rewriter.TableInfo{
			Name: "orders", Schema: ordersSchema,
			PartitionKey: "o_orderkey", Partitions: 4, ClusteredOn: "o_orderkey",
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("orders", batches); err != nil {
			t.Fatal(err)
		}
		return snapshotStorage(t, e, "orders").metas
	}
	// Descending halves, so the clustered sort has to interleave batches.
	hi, lo := ordersBatch(1500, 3000), ordersBatch(0, 1500)
	withSel := ordersBatch(1500, 3500)
	withSel.Sel = make([]int32, 1500)
	for i := range withSel.Sel {
		withSel.Sel[i] = int32(i)
	}
	one := vector.NewBatchForSchema(ordersSchema, 3000)
	for _, b := range []*vector.Batch{hi, lo} {
		for ci, v := range one.Vecs {
			v.AppendRange(b.Col(ci), 0, b.Len())
		}
	}
	want := load(one)
	for pi, m := range load(withSel, lo) {
		if m != want[pi] {
			t.Fatalf("partition %d: two batches laid out differently from their concatenation", pi)
		}
	}
}

// TestLoadMetrics scrapes the registry after a load and a propagation
// append: rows, seconds and the raw/encoded byte counters must answer "how
// fast was the load and at what ratio" without a profiler.
func TestLoadMetrics(t *testing.T) {
	e := testEngine(t, 3)
	scrape := func() map[string]float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := e.Obs().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, line := range strings.Split(buf.String(), "\n") {
			var name string
			var v float64
			if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 && strings.HasPrefix(name, "vectorh_load_") {
				out[name] = v
			}
		}
		return out
	}
	if m := scrape(); len(m) != 4 || m["vectorh_load_rows_total"] != 0 {
		t.Fatalf("before any load: %v", m)
	}
	setupTables(t, e, 1000) // 1000 orders + 3000 items + 10 suppliers
	m := scrape()
	if m["vectorh_load_rows_total"] != 4010 {
		t.Errorf("vectorh_load_rows_total = %v, want 4010", m["vectorh_load_rows_total"])
	}
	var raw, enc int64
	for _, ts := range e.TableStorage() {
		raw += ts.RawBytes
		enc += ts.EncodedBytes
	}
	if m["vectorh_load_raw_bytes_total"] != float64(raw) || m["vectorh_load_encoded_bytes_total"] != float64(enc) {
		t.Errorf("load bytes raw=%v encoded=%v, TableStorage says %d/%d",
			m["vectorh_load_raw_bytes_total"], m["vectorh_load_encoded_bytes_total"], raw, enc)
	}
	if m["vectorh_load_seconds_total"] <= 0 {
		t.Errorf("vectorh_load_seconds_total = %v", m["vectorh_load_seconds_total"])
	}

	// A tail-insert propagation appends through the same path.
	if err := e.InsertRows(context.Background(), "orders", ordersBatch(200000, 200064)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := e.PropagatePartition(context.Background(), "orders", p); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrape()["vectorh_load_rows_total"]; got != 4074 {
		t.Errorf("after propagation: vectorh_load_rows_total = %v, want 4074", got)
	}
}

// TestLoadKeepsCommittedDeltas: DML committed below the flush threshold lives
// in the partitions' PDTs when a later Load appends to them. The load must
// keep it: deleted rows stay deleted, inserted rows stay visible.
func TestLoadKeepsCommittedDeltas(t *testing.T) {
	e := testEngine(t, 3)
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "orders", Schema: ordersSchema,
		PartitionKey: "o_orderkey", Partitions: 4, ClusteredOn: "o_orderkey",
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("orders", []*vector.Batch{ordersBatch(0, 1000)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n, err := e.DeleteWhere(ctx, "orders", plan.LT(plan.Col("o_orderkey"), plan.Int(10))); err != nil || n != 10 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := e.InsertRows(ctx, "orders", ordersBatch(5000, 5005)); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("orders", []*vector.Batch{ordersBatch(1000, 2000)}); err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k := int64(10); k < 2000; k++ {
		want = append(want, k)
	}
	for k := int64(5000); k < 5005; k++ {
		want = append(want, k)
	}
	if got := scanOrderKeys(t, e); !reflect.DeepEqual(got, want) {
		t.Fatalf("after load over pending deltas: %d rows visible, want %d", len(got), len(want))
	}
	if rows, _ := e.TableRows("orders"); rows != int64(len(want)) {
		t.Fatalf("catalog rows %d, want %d", rows, len(want))
	}
}
