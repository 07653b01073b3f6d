package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testSpec(t *testing.T) *benchmarkSpec {
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON holds /BENCHMARK.json to the limits of the driver's
// contract.
func TestBenchmarkJSON(t *testing.T) {
	if info, err := os.Stat(filepath.Join("..", specFile)); err != nil || info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
	spec := testSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at SF 0.005 with
// a 0.3 s window and every oracle on: each must verify, and must emit exactly
// the metrics BENCHMARK.json names for the mode, each once and finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H twelve times")
	}
	spec := testSpec(t)
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.3, trace: traced, sf: 0.005, spec: spec,
				oracleSample: -1, quick: true, outDir: out}
			if traced {
				cfg.oracleSample = 0 // the untraced run already checked every statement
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]bool{}
			for _, m := range res.Metrics {
				switch unit, ok := want[m.Name]; {
				case !ok:
					t.Errorf("%s traced=%v: unexpected metric %s", w.Name, traced, m.Name)
				case got[m.Name]:
					t.Errorf("%s traced=%v: metric %s emitted twice", w.Name, traced, m.Name)
				case unit != m.Unit:
					t.Errorf("%s: metric %s in %q, spec says %q", w.Name, m.Name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
				got[m.Name] = true
			}
			for n := range want {
				if !got[n] {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, n)
				}
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace file: %d events, %v", w.Name, len(doc.TraceEvents), err)
				}
			}
		}
	}
}
