package main

import (
	"context"
	"fmt"
	"time"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/experiments"
	"vectorh/internal/server"
	"vectorh/internal/tpch"
)

// Cluster shape of every run: 3 nodes x 2 threads, 6 partitions, and as many
// client connections as the machine the numbers were sized on has cores.
const (
	nodes       = 3
	threads     = 2
	partitions  = 6
	maxSessions = 2
)

// instance is one loaded engine behind a loopback server.
type instance struct {
	data  *tpch.Data
	eng   *core.Engine
	db    *vectorh.DB
	srv   *server.Server
	addr  string
	stmts []stmt

	genTime, loadTime, setupTime time.Duration
	storageRatio                 float64
}

// newEngine builds the benchmark-sized engine the experiments package
// defines (1 MiB hdfs blocks, 64 KiB column blocks of <= 8192 rows, 64 KiB
// exchange messages); cold_scan gets it without the decoded-block cache.
func newEngine(workload string) (*core.Engine, error) {
	if workload == wColdScan {
		return experiments.NewEngineNoCache(nodes, threads, partitions)
	}
	return experiments.NewEngine(nodes, threads, partitions)
}

// newInstance is one complete set-up: generate, create tables, bulk load,
// start the server, then run every statement of the workload twice — the
// first execution records the reference digest, the second finishes warming
// plan and block caches. The seed reaches only the data generator.
func newInstance(workload string, sf float64, seed int64) (*instance, error) {
	stmts, err := workloadStmts(workload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	in := &instance{stmts: stmts}
	in.data = tpch.Generate(sf, seed)
	in.genTime = time.Since(start)

	t0 := time.Now()
	if in.eng, err = newEngine(workload); err != nil {
		return nil, err
	}
	if err := tpch.LoadIntoEngine(in.eng, in.data, partitions); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	in.loadTime = time.Since(t0)

	in.db = &vectorh.DB{Engine: in.eng}
	in.srv = server.New(in.db, server.Options{MaxConcurrent: maxSessions})
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.addr = addr.String()

	c, err := server.Dial(in.addr)
	if err != nil {
		in.close()
		return nil, err
	}
	defer c.Close()
	for pass := 0; pass < 2; pass++ {
		for i := range in.stmts {
			st := &in.stmts[i]
			res, err := c.Query(context.Background(), st.sql)
			if err != nil {
				in.close()
				return nil, fmt.Errorf("%s at set-up: %w", st.name, err)
			}
			if pass == 0 {
				st.ref = digestRows(res.Rows, st.ordered)
			}
		}
	}
	in.setupTime = time.Since(start)

	var raw, enc int64
	for _, ts := range in.eng.TableStorage() {
		raw += ts.RawBytes
		enc += ts.EncodedBytes
	}
	in.storageRatio = ratio(float64(raw), float64(enc))
	return in, nil
}

func (in *instance) close() { in.srv.Close() }

func (in *instance) rowsLoaded() int {
	n := 0
	for _, b := range in.data.Tables {
		n += b.Len()
	}
	return n
}
