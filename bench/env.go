package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procField reads the first line of a /proc file that starts with key and
// returns what follows it, trimmed ("" when the file or key is absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// envStamp identifies where and on what a set of numbers was measured.
type envStamp struct {
	Time       string  `json:"time"`
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"` // uncommitted changes on top of GitSHA
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	SF         float64 `json:"sf"`
	Seconds    float64 `json:"seconds"`
}

func newEnvStamp(cfg config) envStamp {
	sha, dirty := "unknown", false // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err != nil || len(status) > 0
	}
	return envStamp{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GitSHA:     sha,
		Dirty:      dirty,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Seed:       cfg.seed,
		SF:         cfg.sf,
		Seconds:    cfg.seconds,
	}
}

// historyLine is one record of history.jsonl: append-only, keyed by commit.
type historyLine struct {
	Env     envStamp                      `json:"env"`
	Metrics map[string]map[string]float64 `json:"metrics"` // workload -> metric -> value
}

func appendHistory(path string, env envStamp, results []*result) error {
	line := historyLine{Env: env, Metrics: map[string]map[string]float64{}}
	for _, r := range results {
		m := line.Metrics[r.Workload]
		if m == nil {
			m = map[string]float64{}
			line.Metrics[r.Workload] = m
		}
		for _, x := range r.Metrics {
			m[x.Name] = x.Value
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
