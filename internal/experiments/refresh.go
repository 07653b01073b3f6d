package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"vectorh/internal/baseline"
	"vectorh/internal/core"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
)

// RefreshQuery is one post-refresh validation: a TPC-H query run as SQL on
// VectorH compared row-for-row against the expected result recomputed over
// the refreshed data by the independent tuple-at-a-time baseline engine.
type RefreshQuery struct {
	Q     int
	Rows  int
	Match bool
}

// RefreshResult holds the RF1/RF2-as-SQL experiment outcome.
type RefreshResult struct {
	RF1Orders, RF1Items  int64 // rows inserted by RF1
	RF2Orders, RF2Items  int64 // rows deleted by RF2
	PropagatedPartitions int
	Queries              []RefreshQuery
}

// Refresh reproduces the paper's §8 "Impact of Updates" workload end to end
// over the SQL front-end: RF1 (new orders + lineitems) and RF2 (deletes by
// order key) execute as INSERT/DELETE text through the PDT trickle-update
// path, with the flush threshold set low enough that update propagation
// (tail-insert appends and full partition rewrites) actually runs. The same
// refresh is applied to a baseline engine, and every TPC-H query is then
// validated row-identically against the baseline's answer to the same SQL
// text, recomputed over its refreshed data.
func Refresh(sf float64, nodes int) (*RefreshResult, error) {
	d := tpch.Generate(sf, 13)
	count := int(1500 * sf)
	if count < 5 {
		count = 5
	}
	rf1Orders, rf1Items := tpch.RF1(d, count, 21)
	rf2 := tpch.RF2Keys(d, count, 22)

	cfg := benchConfig(nodes, 2)
	// Low flush threshold: the refresh volume must cross it so the
	// experiment exercises maybePropagate — tail-insert appends after
	// RF1 and full partition rewrites after RF2 — not just PDT merges.
	cfg.PDTFlushBytes = 512
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	partitions := 2 * nodes
	if err := tpch.LoadIntoEngine(eng, d, partitions); err != nil {
		return nil, err
	}

	res := &RefreshResult{}

	// RF1: inserts as SQL. The rendered statements reproduce the RF1
	// batches exactly (same generator, same seed).
	rf1Stmts := append(tpch.InsertSQL("orders", tpch.OrdersSchema, rf1Orders, 500),
		tpch.InsertSQL("lineitem", tpch.LineitemSchema, rf1Items, 500)...)
	for _, s := range rf1Stmts {
		if _, err := sql.Exec(context.Background(), s, eng); err != nil {
			return nil, fmt.Errorf("RF1: %w", err)
		}
	}
	res.RF1Orders = int64(rf1Orders.Len())
	res.RF1Items = int64(rf1Items.Len())

	// RF2: deletes as SQL.
	for _, s := range tpch.RF2SQL(rf2) {
		n, err := sql.Exec(context.Background(), s, eng)
		if err != nil {
			return nil, fmt.Errorf("RF2: %w", err)
		}
		if strings.Contains(s, "from orders") {
			res.RF2Orders = n
		} else {
			res.RF2Items = n
		}
	}

	// Count partitions whose deltas were flushed back into the column
	// store (generation bump = rewrite; empty PDTs + rows beyond the load
	// would mean tail append, which ResetAfterFlush also leaves visible as
	// stable rows).
	for _, table := range []string{"orders", "lineitem"} {
		for p := 0; p < partitions; p++ {
			if m := eng.PartitionMetaForTest(table, p); m != nil && m.Gen > 0 {
				res.PropagatedPartitions++
			}
		}
	}

	// Expected results: the same refresh applied to the baseline engine
	// through its own delta mechanism, then each query recomputed there.
	be := baseline.New(baseline.Hive)
	if err := tpch.LoadIntoBaseline(be, d); err != nil {
		return nil, err
	}
	if err := be.InsertRows("orders", rf1Orders); err != nil {
		return nil, err
	}
	if err := be.InsertRows("lineitem", rf1Items); err != nil {
		return nil, err
	}
	if err := be.DeleteByKey("orders", rf2); err != nil {
		return nil, err
	}
	if err := be.DeleteByKey("lineitem", rf2); err != nil {
		return nil, err
	}

	for q := 1; q <= tpch.NumQueries; q++ {
		p, err := tpch.BuildQuery(q, be)
		if err != nil {
			return nil, fmt.Errorf("Q%d baseline compile: %w", q, err)
		}
		want, err := be.Query(p)
		if err != nil {
			return nil, fmt.Errorf("Q%d baseline: %w", q, err)
		}
		n, err := tpch.BuildQuery(q, eng)
		if err != nil {
			return nil, fmt.Errorf("Q%d compile: %w", q, err)
		}
		got, err := runOn(eng)(n)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q, err)
		}
		res.Queries = append(res.Queries, RefreshQuery{
			Q: q, Rows: len(got), Match: rowsEqual(got, want),
		})
	}
	return res, nil
}

// rowsEqual compares result sets order-insensitively with floats rounded,
// the same normalization the engine-vs-baseline tests use.
func rowsEqual(got, want [][]any) bool {
	if len(got) != len(want) {
		return false
	}
	ng, nw := normalizeRows(got), normalizeRows(want)
	for i := range ng {
		if ng[i] != nw[i] {
			return false
		}
	}
	return true
}

func normalizeRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			switch x := v.(type) {
			case float64:
				p := math.Pow(10, 4)
				fmt.Fprintf(&sb, "%.4f|", math.Round(x*p)/p)
			default:
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}
