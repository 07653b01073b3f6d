package spark

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

var schema = vector.Schema{
	{Name: "k", Type: vector.TInt64},
	{Name: "d", Type: vector.TDate},
	{Name: "v", Type: vector.TFloat64},
	{Name: "s", Type: vector.TString},
}

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{
		Nodes:     []string{"n1", "n2", "n3"},
		BlockSize: 1 << 16,
		// R=1 keeps CSV input files pinned to their writer, so load-path
		// locality differences are visible.
		Replication: 1,
		Format:      colstore.Format{BlockSize: 8192, BlocksPerChunk: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(rewriter.TableInfo{
		Name: "t", Schema: schema, PartitionKey: "k", Partitions: 3,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// writeCSVFiles distributes n CSV files across the nodes (each file written
// by one node, so its first replica is local there).
func writeCSVFiles(t *testing.T, e *core.Engine, files, rowsPer int) []string {
	t.Helper()
	nodes := e.Nodes()
	var paths []string
	id := 0
	for f := 0; f < files; f++ {
		var sb strings.Builder
		for r := 0; r < rowsPer; r++ {
			row := []any{int64(id), vector.MustDate("1995-01-01") + int32(id%100), float64(id) / 2, fmt.Sprintf("s%d", id)}
			sb.WriteString(FormatCSVRow(row, schema))
			sb.WriteByte('\n')
			id++
		}
		path := fmt.Sprintf("/csv/input%02d.tbl", f)
		if err := e.FS().WriteFile(path, nodes[f%len(nodes)], []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func TestCSVRoundTrip(t *testing.T) {
	row := []any{int64(42), vector.MustDate("1997-07-07"), 1.5, "hello"}
	line := FormatCSVRow(row, schema)
	back, err := ParseCSVRow(line, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if back[i] != row[i] {
			t.Fatalf("col %d: %v != %v", i, back[i], row[i])
		}
	}
	if _, err := ParseCSVRow("1|2", schema); err == nil {
		t.Fatal("short row should fail")
	}
	if _, err := ParseCSVRow("x|1995-01-01|1|s", schema); err == nil {
		t.Fatal("bad int should fail")
	}
}

func TestVWLoadAndQuery(t *testing.T) {
	e := newEngine(t)
	paths := writeCSVFiles(t, e, 6, 100)
	if err := VWLoad(e, "t", paths); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), plan.Scan("t", "k"), core.QueryOptions{}, nil)
	if err != nil || len(res.Rows) != 600 {
		t.Fatalf("res = %+v err=%v", res, err)
	}
}

func TestConnectorLoadIsMoreLocalThanVWLoad(t *testing.T) {
	// The §7 experiment shape: vwload from the master reads ~2/3 of the
	// input remotely; the connector's affinity assignment reads ~all
	// input locally.
	run := func(connector bool) (local, remote int64) {
		e := newEngine(t)
		paths := writeCSVFiles(t, e, 9, 200)
		e.FS().ResetStats()
		if connector {
			rdd, err := TextFileRDD(e.FS(), paths)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ConnectorLoad(e, "t", rdd); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := VWLoad(e, "t", paths); err != nil {
				t.Fatal(err)
			}
		}
		s := e.FS().Stats()
		return s.LocalBytesRead, s.RemoteBytesRead
	}
	_, vwRemote := run(false)
	connLocal, connRemote := run(true)
	if vwRemote == 0 {
		t.Fatal("vwload should read some input remotely")
	}
	if connRemote >= vwRemote {
		t.Fatalf("connector remote reads (%d) should be far below vwload (%d)", connRemote, vwRemote)
	}
	if connLocal == 0 {
		t.Fatal("connector should read input locally")
	}
}

func TestAssignPartitionsRespectsAffinity(t *testing.T) {
	rdd := &RDD{Partitions: []RDDPartition{
		{Path: "a", PreferredLocs: []string{"n1"}},
		{Path: "b", PreferredLocs: []string{"n2"}},
		{Path: "c", PreferredLocs: []string{"n2"}},
		{Path: "d", PreferredLocs: []string{"zzz"}}, // no local executor
	}}
	assigned := AssignPartitions(rdd, []string{"n1", "n2"}, 2)
	if assigned[0] != "n1" {
		t.Fatalf("a -> %s", assigned[0])
	}
	if assigned[1] != "n2" || assigned[2] != "n2" {
		t.Fatalf("b,c -> %s,%s", assigned[1], assigned[2])
	}
	if assigned[3] == "" {
		t.Fatal("d unassigned")
	}
}

func TestTextFileRDDPreferredLocations(t *testing.T) {
	e := newEngine(t)
	paths := writeCSVFiles(t, e, 3, 10)
	rdd, err := TextFileRDD(e.FS(), paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(rdd.Partitions) != 3 {
		t.Fatalf("partitions = %d", len(rdd.Partitions))
	}
	for i, p := range rdd.Partitions {
		if len(p.PreferredLocs) == 0 {
			t.Fatalf("partition %d has no preferred locations", i)
		}
	}
}
