// Quickstart: open a 3-node VectorH cluster, create a partitioned table,
// bulk load it, and run an aggregation query.
package main

import (
	"fmt"
	"log"

	"vectorh"
	"vectorh/internal/vector"
)

func main() {
	db, err := vectorh.Open(vectorh.Config{Nodes: []string{"node1", "node2", "node3"}})
	if err != nil {
		log.Fatal(err)
	}

	schema := vectorh.Schema{
		{Name: "id", Type: vectorh.TInt64},
		{Name: "city", Type: vectorh.TString},
		{Name: "amount", Type: vectorh.TFloat64},
	}
	if err := db.CreateTable(vectorh.TableInfo{
		Name: "sales", Schema: schema, PartitionKey: "id", Partitions: 6,
	}); err != nil {
		log.Fatal(err)
	}

	cities := []string{"Amsterdam", "Paris", "Berlin"}
	b := vector.NewBatchForSchema(schema, 9000)
	for i := 0; i < 9000; i++ {
		b.AppendRow(int64(i), cities[i%3], float64(i%100))
	}
	if err := db.Load("sales", []*vector.Batch{b}); err != nil {
		log.Fatal(err)
	}

	const q = `select city, sum(amount) as total, count(*) as n
	           from sales where amount >= 50
	           group by city order by total desc`

	explain, err := db.ExplainSQL(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("distributed plan:")
	fmt.Println(explain)

	rows, err := db.QuerySQL(q)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-10s total=%.0f count=%d\n", r[0], r[1], r[2])
	}
	st := db.FS().Stats()
	fmt.Printf("IO: %d bytes local (short-circuit), %d remote\n", st.LocalBytesRead, st.RemoteBytesRead)
}
