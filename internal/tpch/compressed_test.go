package tpch

import (
	"context"
	"sort"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
)

// TestCompressedExecParityTPCH is the acceptance gate of the
// execute-on-compressed-data path: every TPC-H query with SQL text must
// return rows identical with compressed-domain execution on (dictionary
// verdicts, code-space sieves and join/group keys, block-MinMax skips) and
// off (fully materialized value-space pipeline), on clean storage and again
// after the RF1/RF2 refresh streams have pushed tail inserts and deletes
// through the PDT layers and forced update propagation — so the value-space
// fallbacks on PDT-merged vectors and re-encoded blocks are covered, not
// just clean dictionary-backed scans.
func TestCompressedExecParityTPCH(t *testing.T) {
	const sf = 0.01
	d := Generate(sf, 9)
	names := []string{"n1", "n2", "n3"}
	eng, err := core.New(core.Config{
		Nodes:          names,
		ThreadsPerNode: 2,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
		// Low flush threshold: the refresh volume crosses it, so the
		// post-refresh phase sees propagated blocks, not just PDT merges.
		PDTFlushBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadIntoEngine(eng, d, 6); err != nil {
		t.Fatal(err)
	}

	var qs []int
	for q := range SQLQueries {
		qs = append(qs, q)
	}
	sort.Ints(qs)

	compareAll := func(phase string) {
		t.Helper()
		for _, q := range qs {
			p, err := sql.Compile(SQLQueries[q], eng)
			if err != nil {
				t.Fatalf("%s Q%02d compile: %v", phase, q, err)
			}
			rOn, err := eng.Run(context.Background(), p, core.QueryOptions{}, nil)
			if err != nil {
				t.Fatalf("%s Q%02d code-space: %v", phase, q, err)
			}
			rOff, err := eng.Run(context.Background(), p, core.QueryOptions{Disable: rewriter.CompressedExec}, nil)
			if err != nil {
				t.Fatalf("%s Q%02d value-space: %v", phase, q, err)
			}
			if !rowsIdentical(rOn.Rows, rOff.Rows) {
				t.Fatalf("%s Q%02d diverged: code-space %d rows vs value-space %d rows",
					phase, q, len(rOn.Rows), len(rOff.Rows))
			}
		}
	}

	compareAll("clean")

	// RF1 (trickle inserts) + RF2 (deletes) as SQL DML, as in §8.
	count := int(1500 * sf)
	if count < 5 {
		count = 5
	}
	for _, s := range RF1SQL(d, count, 21) {
		if _, err := sql.Exec(context.Background(), s, eng); err != nil {
			t.Fatalf("RF1: %v", err)
		}
	}
	for _, s := range RF2SQL(RF2Keys(d, count, 22)) {
		if _, err := sql.Exec(context.Background(), s, eng); err != nil {
			t.Fatalf("RF2: %v", err)
		}
	}
	propagated := 0
	for _, table := range []string{"orders", "lineitem"} {
		for p := 0; p < 6; p++ {
			if m := eng.PartitionMetaForTest(table, p); m != nil && m.Gen > 0 {
				propagated++
			}
		}
	}
	if propagated == 0 {
		t.Fatal("refresh did not trigger update propagation; the post-refresh phase would not cover re-encoded blocks")
	}

	compareAll("post-refresh")
}
