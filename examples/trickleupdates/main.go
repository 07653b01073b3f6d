// Trickleupdates: PDT-based inserts, deletes and updates on a clustered
// table, snapshot-consistent reads, and update propagation to the column
// store (§6 of the paper).
package main

import (
	"context"
	"fmt"
	"log"

	"vectorh"
	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

func main() {
	db, err := vectorh.Open(vectorh.Config{Nodes: []string{"node1", "node2", "node3"}})
	if err != nil {
		log.Fatal(err)
	}
	schema := vectorh.Schema{
		{Name: "k", Type: vectorh.TInt64},
		{Name: "d", Type: vectorh.TDate},
		{Name: "v", Type: vectorh.TFloat64},
	}
	if err := db.CreateTable(vectorh.TableInfo{
		Name: "events", Schema: schema, PartitionKey: "k", Partitions: 4, ClusteredOn: "k",
	}); err != nil {
		log.Fatal(err)
	}
	b := vector.NewBatchForSchema(schema, 10000)
	for i := 0; i < 10000; i++ {
		b.AppendRow(int64(i), vector.MustDate("1995-01-01")+int32(i/50), float64(i))
	}
	if err := db.Load("events", []*vector.Batch{b}); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	count := func(label string) {
		rows, err := db.Query(plan.Aggregate(plan.Scan("events", "k"), nil, plan.AStar("n")))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s rows=%v\n", label, rows[0][0])
	}
	count("after load")

	// Trickle inserts land in PDTs; queries see them immediately.
	nb := vector.NewBatchForSchema(schema, 500)
	for i := 0; i < 500; i++ {
		nb.AppendRow(int64(100000+i), vector.MustDate("1998-01-01"), float64(-1))
	}
	if err := db.InsertRows(ctx, "events", nb); err != nil {
		log.Fatal(err)
	}
	count("after 500 trickle inserts")

	n, err := db.DeleteWhere(ctx, "events", plan.LT(plan.Col("k"), plan.Int(1000)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted %d rows\n", n)
	count("after delete k<1000")

	n, err = db.UpdateWhere(ctx, "events",
		plan.GE(plan.Col("k"), plan.Int(100000)),
		[]string{"v"}, []plan.Expr{plan.Float(42)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("updated %d rows\n", n)

	// Flush PDTs into the column store (tail inserts append blocks,
	// deletes/updates rewrite the partition generation).
	for p := 0; p < 4; p++ {
		if err := db.PropagatePartition(ctx, "events", p); err != nil {
			log.Fatal(err)
		}
	}
	count("after update propagation")
	rows, _ := db.Query(plan.Filter(plan.Scan("events"), plan.EQ(plan.Col("k"), plan.Int(100003))))
	fmt.Printf("row 100003 after everything: %v\n", rows[0])
}
