// Colocated: demonstrates the §5 planner rules — co-located merge joins on
// co-partitioned clustered tables, replicated build sides, and the cost of
// turning the rules off (the Figure 5 ablation in miniature).
package main

import (
	"context"
	"fmt"
	"log"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/tpch"
)

func main() {
	db, err := vectorh.Open(vectorh.Config{Nodes: []string{"node1", "node2", "node3"}})
	if err != nil {
		log.Fatal(err)
	}
	d := tpch.Generate(0.003, 42)
	if err := tpch.LoadIntoEngine(db.Engine, d, 6); err != nil {
		log.Fatal(err)
	}

	// lineitem ⋈ orders is co-partitioned AND co-ordered: merge join, no
	// network. supplier is replicated: local build. Only the group-by
	// exchange touches the wire.
	q := plan.Top(
		plan.Aggregate(
			plan.Join(plan.InnerJoin,
				plan.Join(plan.InnerJoin,
					plan.Scan("lineitem", "l_orderkey", "l_suppkey"),
					plan.Scan("orders", "o_orderkey", "o_orderdate"),
					[]string{"l_orderkey"}, []string{"o_orderkey"}),
				plan.Scan("supplier", "s_suppkey", "s_name"),
				[]string{"l_suppkey"}, []string{"s_suppkey"}),
			[]string{"s_suppkey", "s_name"},
			plan.AStar("l_count")),
		10, plan.Desc(plan.Col("l_count")))

	explain, _ := db.Explain(q)
	fmt.Println("plan with all rewrite rules:")
	fmt.Println(explain)

	for _, cfg := range []struct {
		name    string
		disable rewriter.Rules
	}{
		{"all rules", 0},
		{"no local join", rewriter.LocalJoin},
	} {
		db.Net().Reset()
		res, err := db.Run(context.Background(), q, core.QueryOptions{Disable: cfg.disable}, nil)
		if err != nil {
			log.Fatal(err)
		}
		n := db.Net().Stats()
		fmt.Printf("%-14s time=%-12v network=%7.1fKB (%d msgs, %d local handoffs)\n",
			cfg.name, res.Elapsed, float64(n.RemoteBytes)/1024, n.RemoteMsgs, n.LocalHandoffs)
	}
}
