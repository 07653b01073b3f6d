package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/experiments"
	"vectorh/internal/tpch"
)

// tpchStorage is Engine.TableStorage() after loading TPC-H SF 0.01, seed 9,
// into experiments.NewEngine(3, 2, 6) — recorded at c51b274, before loads
// ran partitions in parallel and before the encoders were rewritten, and
// re-recorded when string blocks of a small domain became PDICT whatever
// raw+LZ would take (lineitem, orders and region grew). The bytes a load
// writes are not otherwise allowed to change.
var tpchStorage = []core.TableStorage{
	{Table: "customer", RawBytes: 297337, EncodedBytes: 104299},
	{Table: "lineitem", RawBytes: 9341499, EncodedBytes: 1427476},
	{Table: "nation", RawBytes: 2301, EncodedBytes: 978},
	{Table: "orders", RawBytes: 1877335, EncodedBytes: 408805},
	{Table: "part", RawBytes: 336214, EncodedBytes: 92255},
	{Table: "partsupp", RawBytes: 768349, EncodedBytes: 226086},
	{Table: "region", RawBytes: 348, EncodedBytes: 302},
	{Table: "supplier", RawBytes: 16901, EncodedBytes: 6561},
}

// TestLoadLayoutIsDeterministic loads the same data with one and with four
// partition writers and requires the same storage: identical block
// directories, identical replica placement of every data file (affinity
// placement must not depend on how writers interleave), first replicas on
// the responsible node, and the parent commit's byte totals.
func TestLoadLayoutIsDeterministic(t *testing.T) {
	d := tpch.Generate(0.01, 9)
	load := func(procs int) *core.Engine {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		eng, err := experiments.NewEngine(3, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := tpch.LoadIntoEngine(eng, d, 6); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	serial, parallel := load(1), load(4)

	if got := parallel.TableStorage(); !reflect.DeepEqual(got, tpchStorage) {
		t.Errorf("TableStorage() = %+v\nrecorded at the parent commit: %+v", got, tpchStorage)
	}
	nodes := serial.Nodes()
	for _, table := range serial.SortedTables() {
		for ni, node := range nodes {
			for _, p := range serial.ResponsibleParts(table, ni) {
				ms, mp := serial.PartitionMetaForTest(table, p), parallel.PartitionMetaForTest(table, p)
				bs, _ := ms.Marshal()
				bp, _ := mp.Marshal()
				if !bytes.Equal(bs, bp) {
					t.Errorf("%s.p%d: metadata differs between 1 and 4 writers", table, p)
				}
				for _, f := range ms.Files() {
					ls, err := serial.FS().BlockLocations(f)
					if err != nil {
						t.Fatal(err)
					}
					lp, err := parallel.FS().BlockLocations(f)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ls, lp) {
						t.Errorf("%s: replica placement differs between 1 and 4 writers: %v vs %v", f, ls, lp)
					}
					for bi, locs := range lp {
						if len(locs) == 0 || locs[0] != node {
							t.Errorf("%s block %d: replicas %v, first should be the responsible node %s", f, bi, locs, node)
						}
					}
				}
			}
		}
	}
}

// TestSmallDomainColumnsArePDICT loads TPC-H SF 0.01 and requires every
// block of l_returnflag and l_linestatus to be PDICT, so Q01's group keys
// leave every scan as dictionary codes. Blocks of these columns run long
// stretches of one value, where raw+LZ is the smaller form.
func TestSmallDomainColumnsArePDICT(t *testing.T) {
	eng, err := experiments.NewEngine(3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.LoadIntoEngine(eng, tpch.Generate(0.01, 9), 6); err != nil {
		t.Fatal(err)
	}
	cols := []string{"l_returnflag", "l_linestatus"}
	blocks := 0
	for p := 0; ; p++ {
		meta := eng.PartitionMetaForTest("lineitem", p)
		if meta == nil {
			break
		}
		s, err := colstore.NewScanner(eng.FS(), meta, eng.Nodes()[0], cols, meta.FullRange())
		if err != nil {
			t.Fatal(err)
		}
		s.SetCodeExec(true)
		for i, name := range cols {
			c, err := meta.Col(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range c.Blocks {
				dict, err := s.SpanDict(i, b.RowStart)
				if err != nil {
					t.Fatal(err)
				}
				if dict == nil {
					t.Errorf("lineitem.p%d %s: the block at row %d is not PDICT", p, name, b.RowStart)
				}
				blocks++
			}
		}
		s.Close()
	}
	if blocks == 0 {
		t.Fatal("no lineitem blocks")
	}
}
