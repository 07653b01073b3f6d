// Command bench is the repository's benchmark: TPC-H at SF 0.05 loaded into a
// 3-node x 2-thread engine behind an in-process loopback server, driven as a
// closed loop through server.Client, every statement timed from "SQL text
// handed to the client" to "last row decoded at the client" and every result
// checked. See README.md for the workloads, the metrics and how to compare
// two commits; /BENCHMARK.json is the definition the program reads its metric
// names and units from.
//
//	bash bench/run.sh --workload scan_agg --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh                      # all six workloads, every oracle
//	bash bench/run.sh --trace 1            # per-layer numbers + Chrome traces
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := config{spec: spec, sf: scaleFactor, outDir: "bench/out"}
	var trace int
	var jsonOut string
	var record bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all six, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed of the generated data, refresh chunks and session shuffles")
	flag.Float64Var(&cfg.seconds, "seconds", float64(spec.RunSeconds), "measured window of a run")
	flag.IntVar(&trace, "trace", 0, "1: traced replay + micro pass, reporting the per-layer metrics")
	flag.IntVar(&cfg.oracleSample, "oracle", 2, "TPC-H statements per run checked against internal/baseline (-1: all)")
	flag.StringVar(&jsonOut, "json", "", "suite: also write every workload's result to this file")
	flag.BoolVar(&record, "record", false, "suite: append the results to bench/history.jsonl")
	flag.Parse()
	cfg.trace = trace != 0

	if cfg.workload == "" {
		err = runSuite(cfg, jsonOut, record)
	} else {
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// wireResult is the last line of a run's standard output, in the shape the
// driver's contract prescribes.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload, prints every number as `name value unit`, then
// the result line. A failed op or an oracle mismatch makes the exit code 1.
func runOne(cfg config) error {
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d sf %g window %gs traced %v\n", cfg.workload, cfg.seed, cfg.sf, cfg.seconds, cfg.trace)
	for _, m := range append(res.Info, res.Metrics...) {
		fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	out := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = wireMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d failed ops, %d failures reported", cfg.workload, res.Failed, len(res.Failures))
	}
	return nil
}

// runSuite runs every workload in a process of its own — exactly what the
// driver does, so peak_rss_mb means the same — with every oracle on.
func runSuite(cfg config, jsonOut string, record bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var results []*result
	var failed []string
	for _, w := range cfg.spec.Workloads {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
			"-oracle", "-1")
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run() // non-zero when the workload had failures; its result line says so too
		os.Stdout.Write(stdout.Bytes())
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var wr wireResult
		if err := json.Unmarshal(lines[len(lines)-1], &wr); err != nil {
			if runErr != nil {
				err = runErr
			}
			return fmt.Errorf("%s printed no result: %w", w.Name, err)
		}
		if !wr.Correct {
			failed = append(failed, w.Name)
		}
		r := &result{Workload: w.Name, Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed}
		for name, m := range wr.Metrics {
			r.Metrics = append(r.Metrics, metric{name, m.Value, m.Unit})
		}
		results = append(results, r)
	}
	env := newEnvStamp(cfg)
	if jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"env": env, "results": results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if record {
		if err := appendHistory("bench/history.jsonl", env, results); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads with failed ops or oracle mismatches: %v", failed)
	}
	return nil
}
