package tpch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"vectorh/internal/baseline"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/plan"
)

func TestGenerateDeterministicAndScaled(t *testing.T) {
	a := Generate(0.002, 42)
	b := Generate(0.002, 42)
	for name, ta := range a.Tables {
		tb := b.Tables[name]
		if ta.Len() != tb.Len() {
			t.Fatalf("%s: %d vs %d rows", name, ta.Len(), tb.Len())
		}
	}
	if a.Tables["orders"].Len() != 3000 {
		t.Fatalf("orders = %d", a.Tables["orders"].Len())
	}
	if a.Tables["region"].Len() != 5 || a.Tables["nation"].Len() != 25 {
		t.Fatal("fixed tables wrong size")
	}
	// Same seed, same first rows.
	ra, rb := a.Tables["lineitem"].Row(0), b.Tables["lineitem"].Row(0)
	for c := range ra {
		if ra[c] != rb[c] {
			t.Fatalf("lineitem row 0 differs at col %d", c)
		}
	}
	big := Generate(0.004, 42)
	if big.Tables["orders"].Len() != 6000 {
		t.Fatalf("scaling broken: %d", big.Tables["orders"].Len())
	}
}

func TestLineitemInvariants(t *testing.T) {
	d := Generate(0.002, 1)
	li := d.Tables["lineitem"]
	ship := li.Col(LineitemSchema.Index("l_shipdate")).Int32s()
	commit := li.Col(LineitemSchema.Index("l_commitdate")).Int32s()
	receipt := li.Col(LineitemSchema.Index("l_receiptdate")).Int32s()
	disc := li.Col(LineitemSchema.Index("l_discount")).Int64s()
	for i := range ship {
		if receipt[i] <= ship[i] {
			t.Fatalf("row %d: receipt %d <= ship %d", i, receipt[i], ship[i])
		}
		if disc[i] < 0 || disc[i] > 10 {
			t.Fatalf("row %d: discount %d", i, disc[i])
		}
		_ = commit
	}
}

// queryRows runs a plan on the engine's one query path with default options.
func queryRows(e *core.Engine, q plan.Node) ([][]any, error) {
	res, err := e.Run(context.Background(), q, core.QueryOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

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
	return e
}

// normalize renders a result set as sorted strings with floats rounded for
// stable comparison between the vectorized and tuple-at-a-time engines.
func normalize(rows [][]any) []string {
	out := renderRows(rows)
	sort.Strings(out)
	return out
}

// renderRows renders each row as one string, in result order, with floats at
// 4 decimals.
func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			switch x := v.(type) {
			case float64:
				fmt.Fprintf(&sb, "%.4f|", roundTo(x, 4))
			default:
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out[i] = sb.String()
	}
	return out
}

func roundTo(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

func TestRefreshFunctions(t *testing.T) {
	d := Generate(0.002, 3)
	ob, lb := RF1(d, 30, 99)
	if ob.Len() != 30 || lb.Len() == 0 {
		t.Fatalf("RF1 sizes: %d orders, %d items", ob.Len(), lb.Len())
	}
	// New keys beyond the existing space.
	minKey := ob.Col(0).Int64s()[0]
	if minKey <= int64(d.Tables["orders"].Len()) {
		t.Fatalf("RF1 key %d collides", minKey)
	}
	keys := RF2Keys(d, 50, 5)
	if len(keys) != 50 {
		t.Fatalf("RF2 keys = %d", len(keys))
	}
	seen := map[int64]bool{}
	for _, k := range keys {
		if k < 1 || k > int64(d.Tables["orders"].Len()) || seen[k] {
			t.Fatalf("bad RF2 key %d", k)
		}
		seen[k] = true
	}
}

func TestUpdateImpactShape(t *testing.T) {
	// Miniature §8 update-impact run: apply RF1+RF2 on both engines and
	// verify Q1 answers still agree (the perf GeoDiff is a benchmark).
	d := Generate(0.002, 11)
	eng := newEngine(t)
	if err := LoadIntoEngine(eng, d, 6); err != nil {
		t.Fatal(err)
	}
	base := baseline.New(baseline.Hive)
	if err := LoadIntoBaseline(base, d); err != nil {
		t.Fatal(err)
	}
	ob, lb := RF1(d, 20, 4)
	if err := eng.InsertRows(context.Background(), "orders", ob); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertRows(context.Background(), "lineitem", lb); err != nil {
		t.Fatal(err)
	}
	if err := base.InsertRows("orders", ob); err != nil {
		t.Fatal(err)
	}
	if err := base.InsertRows("lineitem", lb); err != nil {
		t.Fatal(err)
	}
	keys := RF2Keys(d, 25, 8)
	var ik []int64
	ik = append(ik, keys...)
	if err := base.DeleteByKey("orders", keys); err != nil {
		t.Fatal(err)
	}
	if err := base.DeleteByKey("lineitem", keys); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"orders", "lineitem"} {
		col := "o_orderkey"
		if table == "lineitem" {
			col = "l_orderkey"
		}
		if _, err := eng.DeleteWhere(context.Background(), table, inKeys(col, ik)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []int{1, 6} {
		pe, err := BuildQuery(q, eng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryRows(eng, pe)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := BuildQuery(q, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Query(pb)
		if err != nil {
			t.Fatal(err)
		}
		ng, nw := normalize(got), normalize(want)
		if len(ng) != len(nw) {
			t.Fatalf("Q%d rows: %d vs %d", q, len(ng), len(nw))
		}
		for i := range ng {
			if ng[i] != nw[i] {
				t.Fatalf("Q%d row %d after updates:\n engine   %s\n baseline %s", q, i, ng[i], nw[i])
			}
		}
	}
}

// inKeys builds an IN-list predicate over int64 keys.
func inKeys(col string, keys []int64) plan.Expr {
	return plan.InInt(plan.Col(col), keys...)
}
