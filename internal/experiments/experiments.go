// Package experiments computes the counts behind the paper's evaluation
// artifacts (the per-artifact index is the table at the top of
// EXPERIMENTS.md). Each experiment returns exact counts — bytes read, bytes
// sent between nodes, rows validated — and a test in this package states the
// paper's claim as a relation over them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/hadoopfmt"
	"vectorh/internal/hdfs"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// NewEngine builds a benchmark-sized VectorH instance.
func NewEngine(nodes, threads, partitions int) (*core.Engine, error) {
	return core.New(benchConfig(nodes, threads))
}

// NewEngineNoCache builds the same instance with the shared decoded-block
// cache disabled, for experiments that meter physical decode work per
// iteration — with the cache on, every pass after the first would read and
// decode (almost) nothing and the counters would measure cache hits, not
// scan selectivity.
func NewEngineNoCache(nodes, threads, partitions int) (*core.Engine, error) {
	cfg := benchConfig(nodes, threads)
	cfg.BlockCacheBytes = -1
	return core.New(cfg)
}

// runOn is how an experiment runs a compiled plan on VectorH: the one query
// path with default options. A baseline engine's runner is its Query method.
func runOn(eng *core.Engine) func(plan.Node) ([][]any, error) {
	return func(n plan.Node) ([][]any, error) {
		res, err := eng.Run(context.Background(), n, core.QueryOptions{}, nil)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

func benchConfig(nodes, threads int) core.Config {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	return core.Config{
		Nodes:          names,
		ThreadsPerNode: threads,
		BlockSize:      1 << 20,
		Format:         colstore.Format{BlockSize: 64 << 10, BlocksPerChunk: 256, MaxRowsPerBlock: 8192},
		MsgBytes:       64 << 10,
	}
}

// --- Figure 1 — bytes read per data format ---

// Fig1Selectivities are the fractions of lineitem's l_shipdate range the
// Figure-1 query selects.
var Fig1Selectivities = []float64{0.1, 0.3, 0.6, 0.9}

// Fig1Series is one format's Figure-1 counts.
type Fig1Series struct {
	Format string
	// BytesRead is the hdfs bytes one run of the query reads, per entry of
	// Fig1Selectivities (Figure 1b).
	BytesRead []int64
	// ColumnBytes is the stored size of the seven Figure-1c columns.
	ColumnBytes int64
}

var fig1Columns = []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_shipdate", "l_returnflag"}

// Fig1 counts the bytes SELECT max(l_linenumber) WHERE l_shipdate < X reads
// over a lineitem sorted on l_shipdate, in four series: the VectorH format
// (MinMax skipping on a clustered table, decoded-block cache off so every
// run reads from hdfs), the ORC-like format skipping row groups on footer
// statistics, the ORC-like format reading every chunk, and the Parquet-like
// format, whose statistics sit in the chunk headers.
func Fig1(sf float64) ([]Fig1Series, error) {
	d := tpch.Generate(sf, 1)
	li := d.Tables["lineitem"]
	shipIdx := tpch.LineitemSchema.Index("l_shipdate")
	perm := make([]int32, li.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	ship := li.Col(shipIdx).Int32s()
	sort.SliceStable(perm, func(a, b int) bool { return ship[perm[a]] < ship[perm[b]] })
	sorted := (&vector.Batch{Vecs: li.Vecs, Sel: perm}).Compact()
	minDate, maxDate := ship[perm[0]], ship[perm[len(perm)-1]]
	cutoffs := make([]int32, len(Fig1Selectivities))
	for i, sel := range Fig1Selectivities {
		cutoffs[i] = minDate + int32(float64(maxDate-minDate)*sel)
	}

	eng, err := NewEngineNoCache(1, 2, 1)
	if err != nil {
		return nil, err
	}
	info := tpch.DDL(1)[7] // lineitem
	info.Partitions = 1
	info.ClusteredOn = "l_shipdate"
	if err := eng.CreateTable(info); err != nil {
		return nil, err
	}
	if err := eng.Load("lineitem", []*vector.Batch{sorted}); err != nil {
		return nil, err
	}
	vh := Fig1Series{Format: "vectorh"}
	for _, x := range cutoffs {
		q, err := sql.Compile(fmt.Sprintf("select max(l_linenumber) as m from lineitem where l_shipdate < date '%s'",
			vector.FormatDate(x)), eng)
		if err != nil {
			return nil, err
		}
		eng.FS().ResetStats()
		if _, err := runOn(eng)(q); err != nil {
			return nil, err
		}
		st := eng.FS().Stats()
		vh.BytesRead = append(vh.BytesRead, st.LocalBytesRead+st.RemoteBytesRead)
	}
	meta := eng.PartitionMetaForTest("lineitem", 0)
	for _, col := range fig1Columns {
		c, err := meta.Col(col)
		if err != nil {
			return nil, err
		}
		for _, b := range c.Blocks {
			vh.ColumnBytes += int64(b.Bytes)
		}
	}
	out := []Fig1Series{vh}

	formats := []struct {
		name string
		kind hadoopfmt.Kind
		mode hadoopfmt.SkipMode
	}{
		{"orc-like footer skip", hadoopfmt.ORC, hadoopfmt.SkipIO},
		{"orc-like read-all", hadoopfmt.ORC, hadoopfmt.SkipCPU},
		{"parquet-like", hadoopfmt.Parquet, hadoopfmt.SkipCPU},
	}
	for _, f := range formats {
		fs := hdfs.NewCluster([]string{"b1"}, hdfs.Config{BlockSize: 1 << 20, Replication: 1})
		w, err := hadoopfmt.NewWriter(fs, "/li", "b1", tpch.LineitemSchema, hadoopfmt.Options{Kind: f.kind, RowGroupRows: 4096})
		if err != nil {
			return nil, err
		}
		if err := w.Append(sorted); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		r, err := hadoopfmt.Open(fs, "/li", "b1")
		if err != nil {
			return nil, err
		}
		s := Fig1Series{Format: f.name}
		for _, col := range fig1Columns {
			n, err := r.ColumnBytes(col)
			if err != nil {
				return nil, err
			}
			s.ColumnBytes += n
		}
		for _, x := range cutoffs {
			fs.ResetStats()
			it, err := r.Scan([]string{"l_linenumber", "l_shipdate"},
				&hadoopfmt.RangePred{Col: "l_shipdate", Lo: math.MinInt32, Hi: int64(x) - 1}, f.mode)
			if err != nil {
				return nil, err
			}
			for {
				row, err := it.Next()
				if err != nil {
					return nil, err
				}
				if row == nil {
					break
				}
			}
			st := fs.Stats()
			s.BytesRead = append(s.BytesRead, st.LocalBytesRead+st.RemoteBytesRead)
		}
		out = append(out, s)
	}
	return out, nil
}

// --- §5 — rewrite-rule ablation ---

// AblationResult holds one rule configuration's best time (paper: 5.02 /
// 5.64 / 5.67 / 25.51 / 26.14 seconds) and the bytes one run sends between
// nodes (mpi.Network's RemoteBytes), the count a one-process cluster can
// order honestly.
type AblationResult struct {
	Name        string
	Elapsed     time.Duration
	RemoteBytes int64
}

// Fig5Ablation runs the §5 example query (items ⋈ orders ⋈ supplier, group
// by supplier, top 10) with rewrite rules toggled.
//
// It is the one workload plan still built by hand: the ablation measures the
// §5 rules on the paper's join order, lineitem ⋈ orders (co-located) probed
// into supplier (replicated), and that shape must not move when the SQL
// optimizer's join ordering does.
func Fig5Ablation(sf float64, nodes int) ([]AblationResult, error) {
	eng, err := NewEngine(nodes, 2, 2*nodes)
	if err != nil {
		return nil, err
	}
	d := tpch.Generate(sf, 5)
	if err := tpch.LoadIntoEngine(eng, d, 2*nodes); err != nil {
		return nil, err
	}
	q := plan.Top(
		plan.Aggregate(
			plan.Join(plan.InnerJoin,
				plan.Join(plan.InnerJoin,
					plan.Filter(plan.Scan("lineitem", "l_orderkey", "l_suppkey", "l_discount"),
						plan.GT(plan.Dec("l_discount"), plan.Float(0.03))),
					plan.Filter(plan.Scan("orders", "o_orderkey", "o_orderdate"),
						plan.Between(plan.Col("o_orderdate"), plan.Date("1995-03-05"), plan.Date("1997-03-05"))),
					[]string{"l_orderkey"}, []string{"o_orderkey"}),
				plan.Scan("supplier", "s_suppkey", "s_name"),
				[]string{"l_suppkey"}, []string{"s_suppkey"}),
			[]string{"s_suppkey", "s_name"},
			plan.AStar("l_count")),
		10, plan.Asc(plan.Col("l_count")))

	configs := []struct {
		name    string
		disable rewriter.Rules
	}{
		{"all rules", 0},
		{"no partial aggregation", rewriter.PartialAgg},
		{"no replicated build", rewriter.ReplicateBuild},
		{"no local join", rewriter.LocalJoin},
		{"no rules", rewriter.LocalJoin | rewriter.ReplicateBuild | rewriter.PartialAgg},
	}
	ctx := context.Background()
	var out []AblationResult
	for _, cfg := range configs {
		opts := core.QueryOptions{Disable: cfg.disable}
		if _, err := eng.Run(ctx, q, opts, nil); err != nil { // warm
			return nil, err
		}
		best := time.Duration(math.MaxInt64)
		eng.Net().Reset()
		for i := 0; i < 3; i++ {
			res, err := eng.Run(ctx, q, opts, nil)
			if err != nil {
				return nil, err
			}
			if res.Elapsed < best {
				best = res.Elapsed
			}
		}
		out = append(out, AblationResult{cfg.name, best, eng.Net().Stats().RemoteBytes / 3})
	}
	return out, nil
}
