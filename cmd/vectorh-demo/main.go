// Command vectorh-demo walks through the engine end to end: load TPC-H,
// show a distributed plan, run a query with the per-operator profile,
// trickle-update, and survive a node failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	flag.Parse()

	db, err := vectorh.Open(vectorh.Config{Nodes: []string{"node1", "node2", "node3", "node4"}})
	if err != nil {
		log.Fatal(err)
	}
	d := tpch.Generate(*sf, 1)
	if err := tpch.LoadIntoEngine(db.Engine, d, 8); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded TPC-H SF=%.3f on %v\n\n", *sf, db.Nodes())

	ctx := context.Background()
	q5, err := tpch.BuildQuery(5, db)
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Run(ctx, q5, core.QueryOptions{Profile: true}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TPC-H Q5 distributed plan:")
	fmt.Println(res.Explain)
	fmt.Printf("Q5 in %v, %d result rows; hottest operators:\n", res.Elapsed, len(res.Rows))
	fmt.Println(obs.FormatOps(res.Operators, 8))

	// Trickle updates through PDTs.
	ob, lb := tpch.RF1(d, 50, 7)
	if err := db.InsertRows(ctx, "orders", ob); err != nil {
		log.Fatal(err)
	}
	if err := db.InsertRows(ctx, "lineitem", lb); err != nil {
		log.Fatal(err)
	}
	n, _ := db.TableRows("lineitem")
	fmt.Printf("after RF1 trickle insert: lineitem has %d rows\n", n)

	// Node failure: recompute affinity, re-replicate, keep answering.
	if err := db.KillNode("node2"); err != nil {
		log.Fatal(err)
	}
	rows, err := db.Query(plan.Aggregate(plan.Scan("lineitem", "l_quantity"), nil,
		plan.A("s", plan.Sum, plan.Dec("l_quantity"))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after node2 failure, workers=%v, sum(l_quantity)=%v\n", db.Nodes(), rows[0][0])
}
