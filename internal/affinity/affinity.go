// Package affinity computes VectorH's partition placement decisions (§3, §4,
// Figures 2 and 3 of the paper): the initial round-robin affinity mapping at
// table creation, the min-cost-flow re-mapping after worker-set changes, and
// the responsibility assignment that designates exactly one worker per
// partition. The flow formulations follow Figure 3: source → partition edges
// carry the replication degree (or 1 for responsibilities), partition →
// worker edges cost 0 when the partition is already local and 1 otherwise,
// and worker → sink edges cap each worker's fair share.
package affinity

import (
	"fmt"
	"sort"

	"vectorh/internal/flownet"
)

// Locality reports whether a partition's data currently resides on a node
// (derived from HDFS block locations by the caller).
type Locality func(part, node string) bool

// InitialMapping assigns partitions to workers in the round-robin pattern of
// Figure 2: consecutive groups of #parts/#workers partitions go to one
// worker, and replica r of group g lands on worker (g+r) mod N. The first
// entry of each partition's node list is its primary (and initially
// responsible) node.
func InitialMapping(parts, workers []string, r int) map[string][]string {
	n := len(workers)
	if n == 0 {
		return nil
	}
	if r > n {
		r = n
	}
	perNode := (len(parts) + n - 1) / n
	if perNode == 0 {
		perNode = 1
	}
	out := make(map[string][]string, len(parts))
	for i, p := range parts {
		g := i / perNode
		locs := make([]string, 0, r)
		for c := 0; c < r; c++ {
			locs = append(locs, workers[(g+c)%n])
		}
		out[p] = locs
	}
	return out
}

// ComputeAffinity solves the Figure 3 min-cost flow with source→partition
// capacity equal to the replication degree: it decides on which r workers
// each partition should be stored, preferring nodes where the partition is
// already local and balancing each worker to at most ⌈P·r/N⌉ partitions.
func ComputeAffinity(parts, workers []string, r int, isLocal Locality) (map[string][]string, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("affinity: no workers")
	}
	if r > len(workers) {
		r = len(workers)
	}
	flows, err := solve(parts, workers, r, isLocal)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(parts))
	for pi, p := range parts {
		var locs []string
		// Local nodes first so the primary stays put when possible.
		for wi, w := range workers {
			if flows[pi][wi] > 0 && isLocal != nil && isLocal(p, w) {
				locs = append(locs, w)
			}
		}
		for wi, w := range workers {
			if flows[pi][wi] > 0 && (isLocal == nil || !isLocal(p, w)) {
				locs = append(locs, w)
			}
		}
		out[p] = locs
	}
	return out, nil
}

// ComputeResponsibility solves the same flow with source→partition capacity
// 1, designating the single responsible worker per partition. Each worker
// becomes responsible for at most ⌈P/N⌉ partitions.
func ComputeResponsibility(parts, workers []string, isLocal Locality) (map[string]string, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("affinity: no workers")
	}
	flows, err := solve(parts, workers, 1, isLocal)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(parts))
	for pi, p := range parts {
		for wi, w := range workers {
			if flows[pi][wi] > 0 {
				out[p] = w
				break
			}
		}
		if _, ok := out[p]; !ok {
			return nil, fmt.Errorf("affinity: partition %s unassigned", p)
		}
	}
	return out, nil
}

// solve builds and solves the bipartite flow of Figure 3, returning per
// (partition, worker) flows.
func solve(parts, workers []string, perPart int, isLocal Locality) ([][]int, error) {
	p, n := len(parts), len(workers)
	// Node ids: 0 = source, 1..p partitions, p+1..p+n workers, p+n+1 sink.
	s, t := 0, p+n+1
	g := flownet.New(p + n + 2)
	cap := (p*perPart + n - 1) / n
	if cap == 0 {
		cap = 1
	}
	edgeIDs := make([][]int, p)
	for pi := range parts {
		g.AddEdge(s, 1+pi, perPart, 0)
		edgeIDs[pi] = make([]int, n)
	}
	for pi, part := range parts {
		for wi, w := range workers {
			cost := 1
			if isLocal != nil && isLocal(part, w) {
				cost = 0
			}
			edgeIDs[pi][wi] = g.AddEdge(1+pi, 1+p+wi, 1, cost)
		}
	}
	for wi := range workers {
		g.AddEdge(1+p+wi, t, cap, 0)
	}
	flow, _ := g.MinCostMaxFlow(s, t)
	if flow < p*perPart && perPart <= n {
		return nil, fmt.Errorf("affinity: could only place %d of %d partition copies", flow, p*perPart)
	}
	out := make([][]int, p)
	for pi := range parts {
		out[pi] = make([]int, n)
		for wi := range workers {
			out[pi][wi] = g.Flow(edgeIDs[pi][wi])
		}
	}
	return out, nil
}

// LocalityScore counts the partitions local to a node; the paper's dbAgent
// (§4) ranks candidate workers by it during worker-set selection.
func LocalityScore(parts []string, node string, isLocal Locality) int {
	score := 0
	for _, p := range parts {
		if isLocal(p, node) {
			score++
		}
	}
	return score
}

// Moves diffs two affinity mappings and returns the partition copies that
// must be re-replicated (partition → nodes that newly store it), sorted for
// stable reporting.
func Moves(old, new map[string][]string) []string {
	var moves []string
	for p, locs := range new {
		prev := map[string]bool{}
		for _, n := range old[p] {
			prev[n] = true
		}
		for _, n := range locs {
			if !prev[n] {
				moves = append(moves, p+"->"+n)
			}
		}
	}
	sort.Strings(moves)
	return moves
}
