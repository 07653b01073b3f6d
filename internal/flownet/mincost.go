// Package flownet provides the combinatorial building blocks VectorH uses
// for placement decisions: min-cost max-flow (worker-set selection, data
// affinity mapping and responsibility assignment, §4 and Figure 3 of the
// paper) and Hopcroft–Karp bipartite matching (Spark RDD partition
// assignment, §7).
package flownet

import "container/list"

// Graph is a directed flow network with per-edge capacity and cost.
// Nodes are dense integers [0, n). The zero Graph is not usable; call New.
type Graph struct {
	n     int
	heads []int32
	edges []edge
}

type edge struct {
	to, next int32
	cap      int32
	cost     int32
}

// New returns an empty flow network with n nodes.
func New(n int) *Graph {
	heads := make([]int32, n)
	for i := range heads {
		heads[i] = -1
	}
	return &Graph{n: n, heads: heads}
}

// AddEdge adds a directed edge u->v with the given capacity and cost, plus
// the implicit residual reverse edge. It returns the edge index, usable with
// Flow after solving.
func (g *Graph) AddEdge(u, v, capacity, cost int) int {
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), next: g.heads[u], cap: int32(capacity), cost: int32(cost)})
	g.heads[u] = int32(id)
	g.edges = append(g.edges, edge{to: int32(u), next: g.heads[v], cap: 0, cost: int32(-cost)})
	g.heads[v] = int32(id + 1)
	return id
}

// Flow returns the flow pushed through edge id after MinCostMaxFlow.
func (g *Graph) Flow(id int) int { return int(g.edges[id^1].cap) }

// MinCostMaxFlow computes a maximum flow of minimum cost from s to t using
// successive shortest augmenting paths (SPFA for the shortest-path step,
// which tolerates the negative reduced costs of residual edges). It returns
// the total flow and its total cost.
func (g *Graph) MinCostMaxFlow(s, t int) (flow, cost int) {
	const inf = int32(1) << 30
	dist := make([]int32, g.n)
	inQueue := make([]bool, g.n)
	prevEdge := make([]int32, g.n)

	for {
		for i := range dist {
			dist[i] = inf
			prevEdge[i] = -1
			inQueue[i] = false
		}
		dist[s] = 0
		queue := list.New()
		queue.PushBack(int32(s))
		inQueue[s] = true
		for queue.Len() > 0 {
			u := queue.Remove(queue.Front()).(int32)
			inQueue[u] = false
			for eid := g.heads[u]; eid >= 0; eid = g.edges[eid].next {
				e := &g.edges[eid]
				if e.cap <= 0 {
					continue
				}
				if nd := dist[u] + e.cost; nd < dist[e.to] {
					dist[e.to] = nd
					prevEdge[e.to] = eid
					if !inQueue[e.to] {
						queue.PushBack(e.to)
						inQueue[e.to] = true
					}
				}
			}
		}
		if dist[t] >= inf {
			return flow, cost
		}
		// Find the bottleneck along the path, then augment.
		push := inf
		for v := int32(t); v != int32(s); {
			e := &g.edges[prevEdge[v]]
			if e.cap < push {
				push = e.cap
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := int32(t); v != int32(s); {
			eid := prevEdge[v]
			g.edges[eid].cap -= push
			g.edges[eid^1].cap += push
			v = g.edges[eid^1].to
		}
		flow += int(push)
		cost += int(push * dist[t])
	}
}
