// Package joinorder implements the join-order search of the SQL planner: a
// stats-driven greedy ordering over the join graph of one SELECT block.
// Relations carry estimated output cardinalities (the catalog's live row
// counts scaled by their filters' expr.Selectivity over colstore MinMax
// ranges — the estimates EXPLAIN prints on the scans); edges are the
// equality conjuncts of the ON conditions, each with an estimated
// distinct-value count per side (MinMax width capped by the relation's base
// rows). The search emits a left-deep join order that starts
// from the largest relation — the fact table stays on the probe side, as in
// the hand-written TPC-H plans — and repeatedly joins the relation that
// minimizes the estimated intermediate cardinality, the classic greedy
// heuristic Vectorwise-lineage systems fall back on when DP is not
// warranted. Minimizing the intermediate (rather than picking the smallest
// relation) is what keeps low-distinct edges like nationkey from being used
// as the join key while the high-distinct FK edge is still outside the tree:
// on Q05, joining customer to a lineitem×supplier tree through nationkey
// alone would fan out ~60×.
package joinorder

// Rel is one relation (FROM source): Rows is its estimated output after
// local predicates, Base its unfiltered base-table row count. Base bounds
// the joint key domain of a join against the relation — a composite key
// like partsupp's (partkey, suppkey) has far fewer real combinations than
// the product of the column widths suggests.
type Rel struct {
	Rows float64
	Base float64
}

// Edge is an undirected equality join edge between two relations, by index.
// DistA/DistB estimate the distinct join-key values on each side: the
// column's MinMax width capped by the relation's base rows. Zero or
// negative distincts are treated as 1 (no reduction assumed).
type Edge struct {
	A, B         int
	DistA, DistB float64
}

// Greedy returns a left-deep join order over rels: the largest relation
// first, then repeatedly the relation whose join against the tree so far
// has the smallest estimated output cardinality under a containment model:
//
//	out = treeRows × candRows / D
//
// where D is the joint key domain of the connecting edges — the product of
// the per-side distinct estimates, capped by the tree's rows and the
// candidate's base rows. Capping by base rows keeps composite keys honest
// (Q09: partkey×suppkey into partsupp is 200k combinations on paper but
// only 8k exist, so the join does not reduce the tree at all), while a
// genuinely low-distinct edge like Q05's nationkey yields a small D and a
// correctly penalized fan-out. Ties break toward the lower index, which
// keeps the order deterministic and biased to the written FROM order. It
// returns nil when the join graph is disconnected (the caller falls back to
// FROM order).
func Greedy(rels []Rel, edges []Edge) []int {
	n := len(rels)
	if n == 0 {
		return nil
	}
	start := 0
	for i := 1; i < n; i++ {
		if rels[i].Rows > rels[start].Rows {
			start = i
		}
	}
	order := make([]int, 0, n)
	inTree := make([]bool, n)
	order = append(order, start)
	inTree[start] = true
	treeRows := rels[start].Rows
	for len(order) < n {
		best, bestRows := -1, 0.0
		for cand := 0; cand < n; cand++ {
			if inTree[cand] {
				continue
			}
			// All edges between the tree and the candidate form one joint
			// key: composite keys (Q09's partkey+suppkey into partsupp)
			// and multi-edge attachments (Q05's custkey+nationkey once
			// orders is in the tree) are costed together.
			connected := false
			domTree, domCand := 1.0, 1.0
			for _, e := range edges {
				if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n || e.A == e.B {
					continue
				}
				var dTree, dCand float64
				switch {
				case e.A == cand && inTree[e.B]:
					dTree, dCand = e.DistB, e.DistA
				case e.B == cand && inTree[e.A]:
					dTree, dCand = e.DistA, e.DistB
				default:
					continue
				}
				connected = true
				domTree *= maxf(dTree, 1)
				domCand *= maxf(dCand, 1)
			}
			if !connected {
				continue
			}
			out := JoinRows(treeRows, rels[cand].Rows, rels[cand].Base, minf(domTree, domCand))
			if best < 0 || out < bestRows {
				best, bestRows = cand, out
			}
		}
		if best < 0 {
			return nil // disconnected join graph
		}
		order = append(order, best)
		inTree[best] = true
		treeRows = bestRows
		if treeRows < 1 {
			treeRows = 1
		}
	}
	return order
}

// JoinRows is the containment estimate of one join, the model Greedy orders
// by and the rewriter prints on every join: treeRows × candRows / D, where D
// is the key domain dom capped by treeRows and by the candidate's base rows
// (at least candRows). A caller that knows no key domain passes +Inf.
func JoinRows(treeRows, candRows, candBase, dom float64) float64 {
	base := maxf(maxf(candBase, candRows), 1)
	d := maxf(minf(dom, minf(treeRows, base)), 1)
	return treeRows * candRows / d
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
