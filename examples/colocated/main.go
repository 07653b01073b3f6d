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
	const text = `select s_suppkey, s_name, count(*) as l_count
	              from lineitem
	                join orders on l_orderkey = o_orderkey
	                join supplier on l_suppkey = s_suppkey
	              group by s_suppkey, s_name
	              order by l_count desc
	              limit 10`
	q, _, err := db.CompileSQL(text, nil)
	if err != nil {
		log.Fatal(err)
	}

	explain, err := db.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
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
