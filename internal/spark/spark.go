// Package spark simulates the Spark–VectorH connector of §7: RDDs whose
// partitions carry preferred locations (the HDFS block holders), the
// ExternalScan operators VectorH exposes to ingest parallel binary streams,
// and the Hopcroft–Karp-style assignment of input partitions to operators
// that maximizes node-local transfers (Figure 6). It also provides the plain
// vwload path for the §7 load-performance comparison: vwload reads whatever
// node it runs on, so non-local CSV files cross the network, while the
// connector's affinity-aware assignment gets short-circuit reads
// "out-of-the-box".
package spark

import (
	"fmt"
	"strconv"
	"strings"

	"vectorh/internal/core"
	"vectorh/internal/flownet"
	"vectorh/internal/hdfs"
	"vectorh/internal/vector"
)

// RDDPartition is one input split with its preferred (local) nodes.
type RDDPartition struct {
	Path          string
	PreferredLocs []string
}

// RDD is a minimal resilient-distributed-dataset stand-in: a list of
// partitions with location preferences.
type RDD struct {
	Partitions []RDDPartition
}

// TextFileRDD builds an RDD over HDFS files, one partition per file, with
// preferred locations taken from the namenode's block locations (like
// Spark's HadoopRDD).
func TextFileRDD(fs *hdfs.Cluster, paths []string) (*RDD, error) {
	rdd := &RDD{}
	for _, p := range paths {
		locs, err := fs.BlockLocations(p)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var pref []string
		for _, bl := range locs {
			for _, n := range bl {
				if !seen[n] {
					seen[n] = true
					pref = append(pref, n)
				}
			}
		}
		rdd.Partitions = append(rdd.Partitions, RDDPartition{Path: p, PreferredLocs: pref})
	}
	return rdd, nil
}

// AssignPartitions maps RDD partitions to nodes, maximizing assignments that
// respect affinity via maximum bipartite matching rounds (the
// "algorithm similar to Hopcroft-Karp's" of §7); partitions without a local
// executor slot fall back to arbitrary nodes (the dot-dash arrows of
// Figure 6).
func AssignPartitions(rdd *RDD, nodes []string, slotsPerNode int) []string {
	nodeIdx := map[string]int{}
	for i, n := range nodes {
		nodeIdx[n] = i
	}
	assigned := make([]string, len(rdd.Partitions))
	remaining := make([]int, 0, len(rdd.Partitions))
	for i := range rdd.Partitions {
		remaining = append(remaining, i)
	}
	slotsLeft := make([]int, len(nodes))
	for i := range slotsLeft {
		slotsLeft[i] = slotsPerNode
	}
	// Repeated matching rounds: each round gives every node one slot.
	for round := 0; round < slotsPerNode && len(remaining) > 0; round++ {
		adj := make([][]int, len(remaining))
		for i, pi := range remaining {
			for _, loc := range rdd.Partitions[pi].PreferredLocs {
				if ni, ok := nodeIdx[loc]; ok && slotsLeft[ni] > 0 {
					adj[i] = append(adj[i], ni)
				}
			}
		}
		matchL, _ := flownet.HopcroftKarp(len(remaining), len(nodes), adj)
		var next []int
		for i, pi := range remaining {
			if matchL[i] >= 0 {
				assigned[pi] = nodes[matchL[i]]
				slotsLeft[matchL[i]]--
			} else {
				next = append(next, pi)
			}
		}
		remaining = next
	}
	// Fallback: ignore affinity.
	rr := 0
	for _, pi := range remaining {
		assigned[pi] = nodes[rr%len(nodes)]
		rr++
	}
	return assigned
}

// ParseCSVRow converts one CSV line to typed values for the schema.
func ParseCSVRow(line string, schema vector.Schema) ([]any, error) {
	fields := strings.Split(line, "|")
	if len(fields) < len(schema) {
		return nil, fmt.Errorf("spark: row has %d fields, want %d", len(fields), len(schema))
	}
	out := make([]any, len(schema))
	for i, f := range schema {
		s := fields[i]
		switch {
		case f.Type.Logical == vector.Date:
			d, err := vector.ParseDate(s)
			if err != nil {
				return nil, err
			}
			out[i] = d
		case f.Type.Kind == vector.Int64:
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		case f.Type.Kind == vector.Int32:
			v, err := strconv.ParseInt(s, 10, 32)
			if err != nil {
				return nil, err
			}
			out[i] = int32(v)
		case f.Type.Kind == vector.Float64:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		default:
			out[i] = s
		}
	}
	return out, nil
}

// FormatCSVRow renders typed values as a CSV line (tpchgen output format).
func FormatCSVRow(row []any, schema vector.Schema) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if schema[i].Type.Logical == vector.Date {
			parts[i] = vector.FormatDate(v.(int32))
			continue
		}
		parts[i] = fmt.Sprintf("%v", v)
	}
	return strings.Join(parts, "|")
}

// readAndParse reads a CSV file from the given node and parses it.
func readAndParse(fs *hdfs.Cluster, path, node string, schema vector.Schema) (*vector.Batch, error) {
	raw, err := fs.ReadAll(path, node)
	if err != nil {
		return nil, err
	}
	b := vector.NewBatchForSchema(schema, 1024)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		row, err := ParseCSVRow(line, schema)
		if err != nil {
			return nil, err
		}
		b.AppendRow(row...)
	}
	return b, nil
}

// VWLoad is the classic loader: the node running vwload (the session master)
// reads every input file itself — remote HDFS reads for non-local blocks —
// then bulk-appends into the table.
func VWLoad(e *core.Engine, table string, paths []string) error {
	info, err := e.Table(table)
	if err != nil {
		return err
	}
	master := e.Nodes()[0]
	var batches []*vector.Batch
	for _, p := range paths {
		b, err := readAndParse(e.FS(), p, master, info.Schema)
		if err != nil {
			return err
		}
		batches = append(batches, b)
	}
	return e.Load(table, batches)
}

// ConnectorLoad ingests an RDD through the Spark–VectorH connector: RDD
// partitions are assigned to ExternalScan operators with affinity, each
// executor reads and parses its partition locally, and the parsed batches
// are appended. It returns the per-node assignment for inspection.
func ConnectorLoad(e *core.Engine, table string, rdd *RDD) (map[string]int, error) {
	info, err := e.Table(table)
	if err != nil {
		return nil, err
	}
	nodes := e.Nodes()
	assigned := AssignPartitions(rdd, nodes, (len(rdd.Partitions)+len(nodes)-1)/len(nodes))
	counts := map[string]int{}
	var batches []*vector.Batch
	for pi, part := range rdd.Partitions {
		node := assigned[pi]
		counts[node]++
		b, err := readAndParse(e.FS(), part.Path, node, info.Schema)
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
	return counts, e.Load(table, batches)
}
