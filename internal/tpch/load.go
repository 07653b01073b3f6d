package tpch

import (
	"fmt"

	"vectorh/internal/baseline"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/vector"
)

// Demo builds the database vectorh-serve and vectorh-sql serve: nodes
// workers named node1…nodeN with threads exchange threads each, and TPC-H at
// scale factor sf (seed 42) loaded over the given partition count. It also
// returns the generated data, which the refresh streams derive their rows
// and keys from.
func Demo(sf float64, nodes, threads, partitions int) (*core.Engine, *Data, error) {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	e, err := core.New(core.Config{
		Nodes:          names,
		ThreadsPerNode: threads,
		BlockSize:      1 << 18,
		Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
		MsgBytes:       16 << 10,
	})
	if err != nil {
		return nil, nil, err
	}
	d := Generate(sf, 42)
	if err := LoadIntoEngine(e, d, partitions); err != nil {
		return nil, nil, err
	}
	return e, d, nil
}

// LoadIntoEngine creates the §8 physical design on a VectorH engine and bulk
// loads a generated database.
func LoadIntoEngine(e *core.Engine, d *Data, partitions int) error {
	for _, info := range DDL(d.SF, partitions) {
		if err := e.CreateTable(info); err != nil {
			return err
		}
		if err := e.Load(info.Name, []*vector.Batch{d.Tables[info.Name]}); err != nil {
			return err
		}
	}
	return nil
}

// LoadIntoBaseline loads a generated database into a baseline engine.
func LoadIntoBaseline(e *baseline.Engine, d *Data) error {
	for _, info := range DDL(d.SF, 1) {
		if err := e.Load(info.Name, info.Schema, d.Tables[info.Name]); err != nil {
			return err
		}
	}
	return nil
}
