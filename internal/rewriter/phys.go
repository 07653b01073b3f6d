// Package rewriter implements the Parallel Rewriter of §5: it turns logical
// plans into distributed physical plans built from per-node parallel
// fragments connected by (D)Xchg operators, applying the paper's rewrite
// rules — local join detection over co-located partitions, replicated build
// sides, partial aggregation before exchanges — under a cost model that
// makes network exchanges expensive. A join whose sides are not co-located
// builds from a replicated side when it has one: a replicated table, or a
// build side a DXchgBroadcast replicates at run time because that moves
// fewer estimated bytes than repartitioning both sides.
package rewriter

import (
	"context"
	"fmt"
	"strings"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/mpi"
	"vectorh/internal/mpp"
	"vectorh/internal/vector"
)

// ScanSpec is what a physical scan asks of storage: a projection of a table
// and, when a filter sat directly on the scan, what that filter's predicate
// lets storage do.
type ScanSpec struct {
	Table string
	Cols  []string
	// Filter is the filter's whole predicate, bound against Cols. The provider
	// MUST return exactly the rows satisfying it — there is no Select above
	// the scan to re-check — and may skip blocks on the per-column intervals
	// it implies (expr.Bounds), which never decide a row. Nil when there was
	// no filter or the ScanPushdown rule is off (the Select then stays above
	// the scan).
	Filter expr.Expr
	// Codes asks for PDICT string blocks as dictionary-code vectors, and for
	// spans to be decided on compression metadata before anything is
	// unpacked; unset when the CompressedExec rule is off.
	Codes bool
	// Ordered says the plan relies on rows in ascending order of the table's
	// clustered column (in Cols); should a write break that order before the
	// scan's snapshot, the provider must restore it.
	Ordered bool
}

// ScanProvider supplies storage-backed scan streams; the engine implements
// it, tests can fake it.
type ScanProvider interface {
	// PartitionScan scans one partition of a partitioned table at a node,
	// under the query's context.
	PartitionScan(ctx context.Context, spec ScanSpec, part, node int) (exec.Operator, error)
	// ReplicatedScan scans a replicated table at a node.
	ReplicatedScan(ctx context.Context, spec ScanSpec, node int) (exec.Operator, error)
	// ResponsibleParts lists the partitions a node is responsible for,
	// in ascending order (co-partitioned tables agree on this mapping).
	ResponsibleParts(table string, node int) []int
}

// Env is the instantiation context of one query execution.
type Env struct {
	// Ctx is the query's context; it is threaded into storage scans and into
	// every local and distributed exchange, whose producers and senders check
	// it per batch. Nil means Background.
	Ctx      context.Context
	Net      *mpi.Network
	Provider ScanProvider
	Nodes    int
	Threads  int // consumer threads per node for exchanges
	MsgBytes int
	Profile  *Profile // when non-nil, every stream is wrapped in exec.Profiled

	memo map[Phys][][]exec.Operator
}

// StreamProf is one profiled operator stream: the plan node it belongs to,
// its placement (node, stream), and the live wrapper whose atomics accumulate
// while the query runs.
type StreamProf struct {
	Phys   Phys
	Node   int
	Stream int
	Prof   *exec.Profiled
}

// Profile is the per-query sink of profiled streams. Keeping the Phys
// pointer (rather than a formatted key) lets EXPLAIN ANALYZE aggregate the
// parallel streams of each plan node and line actuals up with the cost
// model's estimates, which are also keyed by Phys.
type Profile struct {
	Streams []StreamProf
}

func (e *Env) ctx() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

func (e *Env) instantiate(p Phys) ([][]exec.Operator, error) {
	if e.memo == nil {
		e.memo = make(map[Phys][][]exec.Operator)
	}
	if got, ok := e.memo[p]; ok {
		return got, nil
	}
	streams, err := p.instantiate(e)
	if err != nil {
		return nil, err
	}
	if e.Profile != nil {
		for n := range streams {
			for s := range streams[n] {
				prof := &exec.Profiled{Child: streams[n][s]}
				e.Profile.Streams = append(e.Profile.Streams, StreamProf{Phys: p, Node: n, Stream: s, Prof: prof})
				streams[n][s] = prof
			}
		}
	}
	e.memo[p] = streams
	return streams, nil
}

// Instantiate builds the operator streams of a physical plan.
func Instantiate(p Phys, env *Env) ([][]exec.Operator, error) { return env.instantiate(p) }

// Phys is a node of the distributed physical plan.
type Phys interface {
	OutSchema() vector.Schema
	label() string
	children() []Phys
	instantiate(e *Env) ([][]exec.Operator, error)
}

// Explain renders the physical plan tree.
func Explain(p Phys) string { return ExplainEst(p, nil) }

// ExplainEst renders the physical plan tree with the cost model's
// cardinality estimates (from RewriteEst) appended as ` ~N rows` on the
// nodes that carry one. The annotations make the chosen join order
// auditable: a join lists its probe child first, and each base-table scan
// shows the estimate the SQL join orderer ranked it by — the table's live
// row count times expr.Selectivity of its filter, the same on both sides.
// A join shows the orderer's containment estimate too (joinorder.JoinRows
// over its children's estimates), which is also the probe size the
// broadcast-or-repartition choice above it weighs.
func ExplainEst(p Phys, est map[Phys]int64) string {
	return ExplainFunc(p, func(n Phys) string {
		if rows, ok := est[n]; ok {
			return fmt.Sprintf(" ~%d rows", rows)
		}
		return ""
	})
}

// ExplainFunc renders the physical plan tree, appending annotate(node) to
// each node's label line. EXPLAIN ANALYZE uses this to print estimates and
// measured actuals side by side.
func ExplainFunc(p Phys, annotate func(Phys) string) string {
	var sb strings.Builder
	var rec func(p Phys, depth int)
	rec = func(p Phys, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.label())
		if annotate != nil {
			sb.WriteString(annotate(p))
		}
		sb.WriteByte('\n')
		for _, c := range p.children() {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return sb.String()
}

// Label exposes a plan node's display label for per-operator reporting.
func Label(p Phys) string { return p.label() }

// --- scans ---

type physScan struct {
	ScanSpec
	replicated bool
	schema     vector.Schema
}

func (p *physScan) OutSchema() vector.Schema { return p.schema }
func (p *physScan) children() []Phys         { return nil }

func (p *physScan) label() string {
	kind := "partitioned"
	if p.replicated {
		kind = "replicated"
	}
	s := fmt.Sprintf("MScan[%s] (%s)", p.Table, kind)
	if p.Filter != nil {
		var parts []string
		for _, c := range expr.Conjuncts(p.Filter) {
			parts = append(parts, c.String())
		}
		s += fmt.Sprintf(" filter(%s)", strings.Join(parts, " and "))
		if bs := expr.Bounds(p.Filter); len(bs) > 0 {
			skip := make([]string, len(bs))
			for i, b := range bs {
				skip[i] = fmt.Sprintf("%s in %s", p.Cols[b.Col], b)
			}
			s += fmt.Sprintf(" skip(%s)", strings.Join(skip, " & "))
		}
	}
	return s
}

func (p *physScan) instantiate(e *Env) ([][]exec.Operator, error) {
	out := make([][]exec.Operator, e.Nodes)
	for n := 0; n < e.Nodes; n++ {
		if p.replicated {
			op, err := e.Provider.ReplicatedScan(e.ctx(), p.ScanSpec, n)
			if err != nil {
				return nil, err
			}
			out[n] = []exec.Operator{op}
			continue
		}
		for _, part := range e.Provider.ResponsibleParts(p.Table, n) {
			op, err := e.Provider.PartitionScan(e.ctx(), p.ScanSpec, part, n)
			if err != nil {
				return nil, err
			}
			out[n] = append(out[n], op)
		}
	}
	return out, nil
}

// --- per-stream wrappers ---

type physFilter struct {
	child Phys
	pred  expr.Expr
}

func (p *physFilter) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physFilter) children() []Phys         { return []Phys{p.child} }
func (p *physFilter) label() string            { return fmt.Sprintf("Select[%s]", p.pred) }

func (p *physFilter) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		return &exec.Select{Child: op, Pred: p.pred}
	}), nil
}

type physProject struct {
	child  Phys
	exprs  []expr.Expr
	schema vector.Schema
}

func (p *physProject) OutSchema() vector.Schema { return p.schema }
func (p *physProject) children() []Phys         { return []Phys{p.child} }
func (p *physProject) label() string {
	return fmt.Sprintf("Project[%d exprs,%d prims]", len(p.exprs), numPrims(p.exprs))
}

// numPrims is the size of the program an operator instance compiles from
// exprs, shown in labels so a missed shared sub-expression or an unexpected
// conversion is visible in EXPLAIN without a profiler. A set that does not
// compile reports 0; Open surfaces the error.
func numPrims(exprs []expr.Expr) int {
	prog, err := expr.Compile(exprs...)
	if err != nil {
		return 0
	}
	return prog.NumPrims()
}

func (p *physProject) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		return &exec.Project{Child: op, Exprs: p.exprs}
	}), nil
}

func mapStreams(in [][]exec.Operator, f func(exec.Operator) exec.Operator) [][]exec.Operator {
	out := make([][]exec.Operator, len(in))
	for n, streams := range in {
		for _, s := range streams {
			out[n] = append(out[n], f(s))
		}
	}
	return out
}

// --- joins ---

// physJoin joins probe streams with build streams: a HashJoin each, or with
// merge a MergeJoin of co-located partitions ordered on the one key (columns
// lkey and rkey), the probe as its left side and the build as its right.
type physJoin struct {
	build, probe Phys
	buildKeys    []expr.Expr
	probeKeys    []expr.Expr
	jt           exec.JoinType
	schema       vector.Schema
	// broadcastBuild: the build side has one stream on each node with probe
	// streams — a replicated scan or a DXchgBroadcast — which builds the
	// node's one hash table, probed by every probe stream of the node
	// (replicated build rule).
	broadcastBuild bool
	merge          bool
	lkey, rkey     int
}

func (p *physJoin) OutSchema() vector.Schema { return p.schema }
func (p *physJoin) children() []Phys         { return []Phys{p.probe, p.build} }

func (p *physJoin) label() string {
	switch {
	case p.merge:
		return fmt.Sprintf("MergeJoin[%v,co-located]", p.jt)
	case p.broadcastBuild:
		return fmt.Sprintf("HashJoin[%v,replicated-build]", p.jt)
	}
	return fmt.Sprintf("HashJoin[%v,paired]", p.jt)
}

func (p *physJoin) instantiate(e *Env) ([][]exec.Operator, error) {
	probe, err := e.instantiate(p.probe)
	if err != nil {
		return nil, err
	}
	build, err := e.instantiate(p.build)
	if err != nil {
		return nil, err
	}
	var kinds []vector.Kind
	for _, f := range p.build.OutSchema() {
		kinds = append(kinds, f.Type.Kind)
	}
	out := make([][]exec.Operator, e.Nodes)
	for n := 0; n < e.Nodes; n++ {
		bstreams := build[n]
		// A replicated build is one side per node, which every probe stream
		// of the node probes; a paired join's side has one probe stream.
		var shared *exec.BuildSide
		if p.broadcastBuild {
			if len(probe[n]) == 0 {
				continue
			}
			if len(bstreams) != 1 {
				return nil, fmt.Errorf("rewriter: replicated build expects 1 stream, got %d", len(bstreams))
			}
			shared = exec.NewBuildSide(bstreams[0], p.buildKeys, kinds, len(probe[n]))
		} else if len(bstreams) != len(probe[n]) {
			return nil, fmt.Errorf("rewriter: join stream mismatch on node %d: build %d vs probe %d",
				n, len(bstreams), len(probe[n]))
		}
		for s := range probe[n] {
			if p.merge {
				out[n] = append(out[n], &exec.MergeJoin{Left: probe[n][s], Right: bstreams[s],
					LeftKey: p.lkey, RightKey: p.rkey, Type: p.jt, RightKinds: kinds})
				continue
			}
			side := shared
			if side == nil {
				side = exec.NewBuildSide(bstreams[s], p.buildKeys, kinds, 1)
			}
			out[n] = append(out[n], &exec.HashJoin{Build: side, Probe: probe[n][s], ProbeKeys: p.probeKeys, Type: p.jt})
		}
	}
	return out, nil
}

// --- aggregation ---

type physAggr struct {
	child  Phys
	keys   []expr.Expr
	aggs   []exec.AggSpec
	schema vector.Schema
	kind   string // "partial", "final", "direct", "ordered"
}

func (p *physAggr) OutSchema() vector.Schema { return p.schema }
func (p *physAggr) children() []Phys         { return []Phys{p.child} }
func (p *physAggr) label() string {
	return fmt.Sprintf("Aggr(%s)[%d keys,%d aggs,%d prims]", p.kind, len(p.keys), len(p.aggs),
		numPrims(exec.AggExprs(p.keys, p.aggs)))
}

func (p *physAggr) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		if p.kind == "ordered" {
			return &exec.OrderedAggr{Child: op, Key: p.keys[0], Aggs: p.aggs}
		}
		return &exec.HashAggr{Child: op, Keys: p.keys, Aggs: p.aggs, Partial: p.kind == "partial"}
	}), nil
}

// --- exchanges ---

type physDXchgHash struct {
	child Phys
	keys  []expr.Expr
}

func (p *physDXchgHash) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physDXchgHash) children() []Phys         { return []Phys{p.child} }
func (p *physDXchgHash) label() string            { return "DXchgHashSplit" }

func (p *physDXchgHash) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	consumers := make([]int, e.Nodes)
	for i := range consumers {
		consumers[i] = e.Threads
	}
	return mpp.DXchgHashSplit(mpp.Config{Net: e.Net, MsgBytes: e.MsgBytes, Ctx: e.ctx()}, in, p.keys, consumers)
}

// physDXchgBroadcast replicates a join's build side at run time: one stream
// on every node where the probe side, to, has streams, and none elsewhere.
type physDXchgBroadcast struct {
	child, to Phys
}

func (p *physDXchgBroadcast) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physDXchgBroadcast) children() []Phys         { return []Phys{p.child} }
func (p *physDXchgBroadcast) label() string            { return "DXchgBroadcast" }

func (p *physDXchgBroadcast) instantiate(e *Env) ([][]exec.Operator, error) {
	to, err := e.instantiate(p.to)
	if err != nil {
		return nil, err
	}
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	toNode := make([]bool, e.Nodes)
	for n := range toNode {
		toNode[n] = len(to[n]) > 0
	}
	return mpp.DXchgBroadcast(mpp.Config{Net: e.Net, MsgBytes: e.MsgBytes, Ctx: e.ctx()}, in, toNode)
}

type physDXchgUnion struct {
	child Phys
	node  int
}

func (p *physDXchgUnion) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physDXchgUnion) children() []Phys         { return []Phys{p.child} }
func (p *physDXchgUnion) label() string            { return fmt.Sprintf("DXchgUnion->n%d", p.node) }

func (p *physDXchgUnion) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	union, err := mpp.DXchgUnion(mpp.Config{Net: e.Net, MsgBytes: e.MsgBytes, Ctx: e.ctx()}, in, p.node)
	if err != nil {
		return nil, err
	}
	out := make([][]exec.Operator, e.Nodes)
	out[p.node] = []exec.Operator{union}
	return out, nil
}

// --- per-stream sorts and limits (always on a single master stream or as
// partial top-N before a union) ---

type physTopN struct {
	child Phys
	keys  []exec.SortKey
	n     int64
	kind  string // "partial" or "final"
}

func (p *physTopN) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physTopN) children() []Phys         { return []Phys{p.child} }
func (p *physTopN) label() string            { return fmt.Sprintf("TopN(%s)[%d]", p.kind, p.n) }

func (p *physTopN) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		return &exec.Limit{Child: &exec.Sort{Child: op, Keys: p.keys}, N: p.n}
	}), nil
}

type physSort struct {
	child Phys
	keys  []exec.SortKey
}

func (p *physSort) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physSort) children() []Phys         { return []Phys{p.child} }
func (p *physSort) label() string            { return "Sort" }

func (p *physSort) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		return &exec.Sort{Child: op, Keys: p.keys}
	}), nil
}

type physLimit struct {
	child Phys
	n     int64
}

func (p *physLimit) OutSchema() vector.Schema { return p.child.OutSchema() }
func (p *physLimit) children() []Phys         { return []Phys{p.child} }
func (p *physLimit) label() string            { return fmt.Sprintf("Limit[%d]", p.n) }

func (p *physLimit) instantiate(e *Env) ([][]exec.Operator, error) {
	in, err := e.instantiate(p.child)
	if err != nil {
		return nil, err
	}
	return mapStreams(in, func(op exec.Operator) exec.Operator {
		return &exec.Limit{Child: op, N: p.n}
	}), nil
}
