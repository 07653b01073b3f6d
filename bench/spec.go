package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// /BENCHMARK.json is the benchmark's definition — workloads with their
// reasons, end-to-end metrics with their regression bounds, per-layer
// metrics, all with their units — and the only copy of it: the program reads
// names and units from it and reports exactly those. How each number is
// measured is in the code that measures it; which end-to-end number each
// layer number should move is in README.md.

// specFile is relative to the root of the checkout, where run.sh starts the
// program.
const specFile = "BENCHMARK.json"

// scaleFactor is the TPC-H scale every run loads: one set-up is 4-5 s on two
// cores, which with the window and the oracles keeps a run under 20 s (the
// driver's 136 runs must fit 57 minutes).
const scaleFactor = 0.05

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchmarkSpec is the part of the file the program and its test read.
type benchmarkSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// Workload names are fixed; later issues cite them.
const (
	wScanAgg    = "scan_agg"
	wJoinHeavy  = "join_heavy"
	wWideResult = "wide_result"
	wColdScan   = "cold_scan"
	wRefreshMix = "refresh_mix"
	wSessions   = "sessions"
)
