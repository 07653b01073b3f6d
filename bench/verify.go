package main

import (
	"fmt"
	"math/rand"
	"time"

	"vectorh/internal/baseline"
	"vectorh/internal/tpch"
)

// verifyResult is the outcome of checking a workload's answers against
// oracles that share no code with the engine's execution path.
type verifyResult struct {
	checked    int
	mismatches []string
	elapsed    time.Duration
}

// verify compares got(i) — the engine's digest for statement i — with an
// independent recomputation from the data d. Statements with a floor loop
// are always checked against it. TPC-H statements without one are checked
// against internal/baseline running the hand-built tpch.BuildQuery plan;
// that oracle costs seconds, so a run checks only `sample` of them, drawn
// from the seed (sample < 0 checks all — the suite's verify step).
func verify(stmts []stmt, d *tpch.Data, got func(i int) (digest, error), sample int, seed int64) (*verifyResult, error) {
	start := time.Now()
	res := &verifyResult{}
	compare := func(i int, want digest) error {
		g, err := got(i)
		if err != nil {
			return fmt.Errorf("%s: %w", stmts[i].name, err)
		}
		res.checked++
		if g != want {
			res.mismatches = append(res.mismatches,
				fmt.Sprintf("%s: engine %v, oracle %v", stmts[i].name, g, want))
		}
		return nil
	}
	var slow []int
	for i, st := range stmts {
		switch {
		case st.floor != nil:
			if err := compare(i, digestRows(st.floor(d), st.ordered)); err != nil {
				return nil, err
			}
		case st.tpchQ > 0:
			slow = append(slow, i)
		}
	}
	if sample >= 0 && sample < len(slow) {
		rand.New(rand.NewSource(seed)).Shuffle(len(slow), func(a, b int) { slow[a], slow[b] = slow[b], slow[a] })
		slow = slow[:sample]
	}
	if len(slow) > 0 {
		be := baseline.New(baseline.Hive)
		if err := tpch.LoadIntoBaseline(be, d); err != nil {
			return nil, err
		}
		for _, i := range slow {
			p, err := tpch.BuildQuery(stmts[i].tpchQ, be)
			if err != nil {
				return nil, fmt.Errorf("%s oracle plan: %w", stmts[i].name, err)
			}
			rows, err := be.Query(p)
			if err != nil {
				return nil, fmt.Errorf("%s oracle: %w", stmts[i].name, err)
			}
			if err := compare(i, digestRows(rows, stmts[i].ordered)); err != nil {
				return nil, err
			}
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}
