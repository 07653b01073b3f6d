package core

import (
	"context"
	"fmt"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// runCodeBoth executes a plan with compressed-domain execution on and off
// and asserts the row sets are identical; it returns the rows.
func runCodeBoth(t *testing.T, e *Engine, q plan.Node) [][]any {
	t.Helper()
	rOn, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatalf("compressed exec on: %v", err)
	}
	rOff, err := e.Run(context.Background(), q, QueryOptions{Disable: rewriter.CompressedExec}, nil)
	if err != nil {
		t.Fatalf("compressed exec off: %v", err)
	}
	if len(rOn.Rows) != len(rOff.Rows) {
		t.Fatalf("row count diverged: code-space=%d value-space=%d", len(rOn.Rows), len(rOff.Rows))
	}
	for i := range rOn.Rows {
		for c := range rOn.Rows[i] {
			if rOn.Rows[i][c] != rOff.Rows[i][c] {
				t.Fatalf("row %d col %d diverged: code-space=%v value-space=%v",
					i, c, rOn.Rows[i][c], rOff.Rows[i][c])
			}
		}
	}
	return rOn.Rows
}

// TestCodeSpaceDictVerdictPrunesDecode verifies the dictionary verdict does
// physical work that MinMax skipping cannot. Every block's status column
// holds both "apple" and "cherry", and the query asks for "banana" — inside
// every block's [StrMin, StrMax], so summary skipping keeps every block.
// The dictionary probe sees "banana" in no block dictionary and must prune
// each span before the code stream (or any other column) is decoded; the
// value-space pipeline decodes the full status column to learn the same.
func TestCodeSpaceDictVerdictPrunesDecode(t *testing.T) {
	// Cache disabled: the comparison below charges decoded bytes to each
	// run, which a shared decoded-block cache would hide.
	e, err := New(Config{
		Nodes:           []string{"node1", "node2", "node3"},
		ThreadsPerNode:  2,
		BlockSize:       1 << 16,
		Format:          colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		MsgBytes:        4096,
		BlockCacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := vector.Schema{
		{Name: "key", Type: vector.TInt64},
		{Name: "status", Type: vector.TString},
		{Name: "payload", Type: vector.TString},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "cevents", Schema: schema, PartitionKey: "key", Partitions: 4,
	}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 20000)
	for i := 0; i < 20000; i++ {
		status := "apple"
		if i%2 == 1 {
			status = "cherry"
		}
		b.AppendRow(int64(i), status, fmt.Sprintf("payload-%032d", i))
	}
	if err := e.Load("cevents", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}

	q := plan.Node(plan.Filter(plan.Scan("cevents", "key", "status", "payload"),
		plan.EQ(plan.Col("status"), plan.Str("banana"))))

	s0 := e.ScanStats()
	rOn, err := e.Run(context.Background(), q, QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.ScanStats()
	rOff, err := e.Run(context.Background(), q, QueryOptions{Disable: rewriter.CompressedExec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e.ScanStats()
	if len(rOn.Rows) != 0 || len(rOff.Rows) != 0 {
		t.Fatalf("phantom rows: on=%d off=%d", len(rOn.Rows), len(rOff.Rows))
	}

	onBytes := s1.BytesDecoded - s0.BytesDecoded
	offBytes := s2.BytesDecoded - s1.BytesDecoded
	if onBytes*2 >= offBytes {
		t.Fatalf("dict verdict should decode far fewer bytes: on=%d off=%d", onBytes, offBytes)
	}
	if pruned := s1.SpansPruned - s0.SpansPruned; pruned == 0 {
		t.Fatal("every span should have been verdict-pruned before decode")
	}
}

// TestCodeSpaceParityAcrossDeltas locks the correctness property of
// compressed-domain execution: with string predicates evaluated as
// dictionary verdicts and code-space sieves, results stay row-identical to
// the value-space pipeline through every PDT state — clean blocks, modify
// deltas that flip qualification both ways (served value-space by the
// merge, exercising the fallback kernels), tail inserts in and out of the
// predicate, deletes — and again after propagation rewrites the blocks
// (fresh dictionaries).
func TestCodeSpaceParityAcrossDeltas(t *testing.T) {
	e := testEngine(t, 3)
	schema := vector.Schema{
		{Name: "key", Type: vector.TInt64},
		{Name: "status", Type: vector.TString},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "corders", Schema: schema, PartitionKey: "key", Partitions: 4, ClusteredOn: "key",
	}); err != nil {
		t.Fatal(err)
	}
	states := []string{"open", "paid", "void"}
	b := vector.NewBatchForSchema(schema, 4000)
	for i := 0; i < 4000; i++ {
		b.AppendRow(int64(i), states[i%3])
	}
	if err := e.Load("corders", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}

	f := plan.Filter(plan.Scan("corders", "key", "status"),
		plan.EQ(plan.Col("status"), plan.Str("paid")))
	q := plan.Node(plan.OrderBy(f, plan.Asc(plan.Col("key"))))

	base := runCodeBoth(t, e, q)
	if len(base) == 0 {
		t.Fatal("predicate selected nothing; test data broken")
	}

	// Flip qualification via modifies: key 1 was "paid" (1%3==1), key 3
	// was "open"; swap their states so one row leaves and one enters.
	if _, err := e.UpdateWhere(context.Background(), "corders",
		plan.EQ(plan.Col("key"), plan.Int(1)),
		[]string{"status"}, []plan.Expr{plan.Str("void")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateWhere(context.Background(), "corders",
		plan.EQ(plan.Col("key"), plan.Int(3)),
		[]string{"status"}, []plan.Expr{plan.Str("paid")}); err != nil {
		t.Fatal(err)
	}
	afterMod := runCodeBoth(t, e, q)
	if len(afterMod) != len(base) {
		t.Fatalf("modify flips changed cardinality unexpectedly: %d -> %d", len(base), len(afterMod))
	}

	// Tail inserts: one qualifying, one not.
	ins := vector.NewBatchForSchema(schema, 2)
	ins.AppendRow(int64(9001), "paid")
	ins.AppendRow(int64(9002), "void")
	if err := e.InsertRows(context.Background(), "corders", ins); err != nil {
		t.Fatal(err)
	}
	afterIns := runCodeBoth(t, e, q)
	if len(afterIns) != len(afterMod)+1 {
		t.Fatalf("tail insert: rows %d -> %d, want +1", len(afterMod), len(afterIns))
	}

	// Deletes shift positions under the scan.
	if _, err := e.DeleteWhere(context.Background(), "corders",
		plan.LT(plan.Col("key"), plan.Int(50))); err != nil {
		t.Fatal(err)
	}
	runCodeBoth(t, e, q)

	// Propagate every partition so deltas become freshly encoded blocks
	// (new dictionaries), then re-verify.
	for p := 0; p < 4; p++ {
		if err := e.PropagatePartition(context.Background(), "corders", p); err != nil {
			t.Fatal(err)
		}
	}
	runCodeBoth(t, e, q)

	// A modify to a status no block dictionary holds, under a predicate
	// equal to it: the modified span must not be put to the dictionary
	// verdict, which would find the status nowhere and drop the span.
	qz := plan.Node(plan.OrderBy(plan.Filter(plan.Scan("corders", "key", "status"),
		plan.EQ(plan.Col("status"), plan.Str("zulu"))), plan.Asc(plan.Col("key"))))
	before := runCodeBoth(t, e, qz)
	if _, err := e.UpdateWhere(context.Background(), "corders",
		plan.EQ(plan.Col("key"), plan.Int(100)),
		[]string{"status"}, []plan.Expr{plan.Str("zulu")}); err != nil {
		t.Fatal(err)
	}
	if after := runCodeBoth(t, e, qz); len(after) != len(before)+1 {
		t.Fatalf("modify to a status in no dictionary: rows %d -> %d, want +1", len(before), len(after))
	}
}

// TestValueScanKeepsCodeForm holds the shared block cache to one form per
// PDICT block: a value-space scan (a DML scan, or CompressedExec disabled)
// run first on one cache must not cost a later code-space scan its
// dictionaries: SpanDict finds one on every span of the code-space scan, and
// the scan prunes as many spans as on a fresh cache.
func TestValueScanKeepsCodeForm(t *testing.T) {
	e := testEngine(t, 3)
	schema := vector.Schema{
		{Name: "key", Type: vector.TInt64},
		{Name: "status", Type: vector.TString},
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "vforms", Schema: schema, PartitionKey: "key", Partitions: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Statuses in no period LZ could exploit, so every block is PDICT.
	states := []string{"open", "paid", "void", "held"}
	b := vector.NewBatchForSchema(schema, 4000)
	for i := 0; i < 4000; i++ {
		b.AppendRow(int64(i), states[uint32(i)*2654435761>>29%4])
	}
	if err := e.Load("vforms", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	// "mint" lies inside every block's [StrMin, StrMax] and in no
	// dictionary: only the dictionary verdict prunes its spans.
	pred, err := plan.EQ(plan.Col("status"), plan.Str("mint")).Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	part := e.tables["vforms"].Parts[0]
	scan := func(codes bool) (pruned int64) {
		t.Helper()
		before := e.ScanStats().SpansPruned
		spec := rewriter.ScanSpec{Table: "vforms", Cols: schema.Names(), Filter: pred, Codes: codes}
		if rows := drainScan(t, e, part, spec); len(rows) != 0 {
			t.Fatalf("codes=%v: %d phantom rows", codes, len(rows))
		}
		return e.ScanStats().SpansPruned - before
	}
	fresh := scan(true)
	if fresh == 0 {
		t.Fatal("no span pruned on a fresh cache; test data broken")
	}

	e.blockCache = colstore.NewBlockCache(64 << 20)
	scan(false)
	if got := scan(true); got != fresh {
		t.Fatalf("after a value-space scan, the code-space scan pruned %d spans, %d on a fresh cache", got, fresh)
	}
	sc, err := colstore.NewScanner(e.fs, part.CurrentMeta(), part.Responsible, []string{"status"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.SetCache(e.blockCache)
	sc.SetCodeExec(true)
	for spans := 0; ; spans++ {
		start, n, err := sc.NextSpan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if spans == 0 {
				t.Fatal("no span scanned")
			}
			break
		}
		if d, err := sc.SpanDict(0, start); err != nil || d == nil {
			t.Fatalf("span at row %d: no dictionary from the shared cache (err %v)", start, err)
		}
	}
}
