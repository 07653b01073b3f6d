// Command tpchgen generates TPC-H tables as pipe-separated files (like
// dbgen's .tbl output) in a local directory.
//
//	tpchgen -sf 0.01 -o /tmp/tpch
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vectorh/internal/spark"
	"vectorh/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor")
	out := flag.String("o", ".", "output directory")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	d := tpch.Generate(*sf, *seed)
	for _, info := range tpch.DDL(1) {
		path := filepath.Join(*out, info.Name+".tbl")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		b := d.Tables[info.Name]
		for i := 0; i < b.Len(); i++ {
			fmt.Fprintln(w, spark.FormatCSVRow(b.Row(i), info.Schema))
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("%-10s %8d rows -> %s\n", info.Name, b.Len(), path)
	}
}
