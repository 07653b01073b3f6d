// Package vectorh is the public façade of the VectorH reproduction: a
// vectorized, columnar, updatable MPP SQL engine over a simulated Hadoop
// substrate (HDFS with instrumented block placement, MPI exchanges),
// faithfully following "VectorH: Taking SQL-on-Hadoop to the Next Level"
// (SIGMOD 2016).
//
// Quick start:
//
//	db, _ := vectorh.Open(vectorh.Config{Nodes: []string{"n1", "n2", "n3"}})
//	db.CreateTable(vectorh.TableInfo{Name: "t", Schema: schema,
//	        PartitionKey: "k", Partitions: 6})
//	db.Load("t", batches)
//	rows, _ := db.QuerySQL(`select k, v from t order by k desc limit 10`)
//
// Every statement takes one path: SQL text compiles (through the plan cache)
// to a logical plan, and Engine.Run rewrites it into a distributed physical
// plan and drains its single root stream. Hand-built plans enter the same
// path directly, streaming (yield) or collecting (nil yield):
//
//	res, _ := db.Run(ctx, plan.Top(plan.Scan("t"), 10, plan.Desc(plan.Col("k"))),
//	        core.QueryOptions{}, nil) // res.Rows
//
// QueryOptions.Disable takes a rewriter.Rules set (LocalJoin|ReplicateBuild|
// PartialAgg|ScanPushdown|CompressedExec) to switch rewrite rules off for
// the §5 ablation and the parity gates; the zero value runs every rule.
//
// Logical plans are built with the vectorh/internal/plan package; see
// examples/ for complete programs and internal/tpch for the full TPC-H
// workload as SQL text.
package vectorh

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"vectorh/internal/core"
	"vectorh/internal/obs"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
	"vectorh/internal/vector"
)

// Config parameterizes a database instance; the zero value yields a 3-node
// in-process cluster with paper-like defaults.
type Config = core.Config

// TableInfo declares a table: schema, optional hash partitioning
// (PartitionKey + Partitions) and optional clustered index (ClusteredOn).
// Tables without a partition key are replicated to every node.
type TableInfo = rewriter.TableInfo

// Schema and Field describe table columns.
type (
	// Schema is an ordered column list.
	Schema = vector.Schema
	// Field is one column.
	Field = vector.Field
)

// Column types.
var (
	TInt32   = vector.TInt32
	TInt64   = vector.TInt64
	TFloat64 = vector.TFloat64
	TString  = vector.TString
	TDate    = vector.TDate
	TDecimal = vector.TDecimal
)

// DB is a running VectorH instance (an in-process simulation of the whole
// cluster: workers, session master, HDFS).
//
// Concurrency: a DB is safe for concurrent use. Any number of goroutines
// may run queries simultaneously — each query executes
// against a consistent snapshot (copy-on-write PDT masters plus a
// refcounted column-store metadata generation, pinned atomically at scan
// open). DML (ExecSQL and the InsertRows/UpdateWhere/DeleteWhere API) may
// run concurrently with queries; writers are serialized against each other
// internally, so concurrent DML statements execute one at a time. Running
// queries never observe a torn write: they either see a committed change
// entirely or not at all.
type DB struct {
	*core.Engine

	planOnce sync.Once
	plans    *sql.PlanCache
}

// Open starts a database.
func Open(cfg Config) (*DB, error) {
	e, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{Engine: e}, nil
}

// planCache lazily creates the shared compiled-plan cache (a DB built by
// struct literal, as tests and experiments do, gets one on first use).
func (db *DB) planCache() *sql.PlanCache {
	db.planOnce.Do(func() { db.plans = sql.NewPlanCache(0) })
	return db.plans
}

// CompileSQL lowers a SELECT through the plan cache, keyed on normalized
// token text and the engine's current catalog epoch (so DDL, DML commits and
// background rewrites invalidate cached plans), and returns the logical plan
// with its output schema (column names and types, for clients that render
// results). The plan runs with db.Run. Compile phases and the cache outcome
// are recorded into the nil-safe tr.
func (db *DB) CompileSQL(query string, tr *obs.Trace) (plan.Node, Schema, error) {
	n, s, _, err := db.planCache().CompileTraced(query, db.Engine, db.Engine.CatalogEpoch(), tr)
	return n, s, err
}

// PlanCacheStats returns the compiled-plan cache counters.
func (db *DB) PlanCacheStats() sql.PlanCacheStats {
	return db.planCache().Stats()
}

// QueryProfile is the result of one SQL execution. Rows and Schema are always
// meaningful; the rest is the substance behind EXPLAIN ANALYZE, filled by the
// profiled methods: the annotated plan tree (estimated vs actual rows,
// batches, per-operator wall time), the compile and execute phase spans, the
// plan-cache outcome, the flat per-operator aggregates (heaviest first) and
// the query's exact scan IO.
type QueryProfile struct {
	Rows      [][]any
	Schema    Schema
	Analyzed  string
	Phases    []obs.Phase
	CacheHit  bool
	Operators []obs.OpProfile
	Scan      obs.ScanIO
	Elapsed   time.Duration
}

// Render formats the profile the way the REPL prints EXPLAIN ANALYZE: the
// annotated plan tree followed by the phase breakdown and scan IO totals.
func (p *QueryProfile) Render() string {
	var sb strings.Builder
	sb.WriteString(p.Analyzed)
	fmt.Fprintf(&sb, "Phases: %s (plan cache %s)\n",
		obs.FormatPhases(p.Phases), map[bool]string{true: "hit", false: "miss"}[p.CacheHit])
	fmt.Fprintf(&sb, "Scan IO: blocks=%d bytes=%d cache_hits=%d spans_pruned=%d\n",
		p.Scan.BlocksRead, p.Scan.BytesDecoded, p.Scan.CacheHits, p.Scan.SpansPruned)
	return sb.String()
}

// run is the façade's one SQL query path: compile through the plan cache,
// then Engine.Run. The four exported Query*SQL methods differ only in whether
// they profile and whether they stream; a streaming yield receives each root
// batch boxed by vector.BoxRows.
func (db *DB) run(ctx context.Context, query string, profile bool, yield func(rows [][]any) error) (*QueryProfile, error) {
	var tr *obs.Trace
	if profile {
		tr = obs.NewTrace()
	}
	n, s, err := db.CompileSQL(query, tr)
	if err != nil {
		return nil, err
	}
	var batches func(*vector.Batch) error
	if yield != nil {
		batches = func(b *vector.Batch) error { return yield(vector.BoxRows(nil, b)) }
	}
	res, err := db.Run(ctx, n, core.QueryOptions{Profile: profile, Trace: tr}, batches)
	if err != nil {
		return nil, err
	}
	return &QueryProfile{Rows: res.Rows, Schema: s, Analyzed: res.Analyzed, Phases: tr.Phases(),
		CacheHit: tr.CacheHit(), Operators: res.Operators, Scan: res.Scan, Elapsed: res.Elapsed}, nil
}

// QuerySQL parses, binds and executes one SQL SELECT statement, returning
// all result rows. The statement is lowered onto the same logical plan
// layer as hand-built plan.Node queries, so rewriting, Xchg parallelism and
// MinMax skipping apply unchanged:
//
//	rows, err := db.QuerySQL(`select city, sum(amount) as total
//	                          from sales group by city order by total desc`)
func (db *DB) QuerySQL(query string) ([][]any, error) {
	p, err := db.run(context.Background(), query, false, nil)
	if err != nil {
		return nil, err
	}
	return p.Rows, nil
}

// QueryStreamSQL compiles a SELECT and streams its result rows to yield in
// batches as the root stream produces them, instead of buffering the full
// result. A non-nil error from yield, a deadline or a cancellation stops
// every scan, local exchange producer and distributed exchange sender of the
// query (checked per vector batch), so a cancelled query stops consuming
// cores and releases its storage snapshot promptly.
func (db *DB) QueryStreamSQL(ctx context.Context, query string, yield func(rows [][]any) error) error {
	_, err := db.run(ctx, query, false, yield)
	return err
}

// QueryProfileSQL executes a SELECT with per-operator profiling and phase
// tracing — the API behind `EXPLAIN ANALYZE <sql>`. The profiled run pays
// for its instrumentation (a timing wrapper around every operator stream);
// the regular query paths insert no wrappers and are unaffected.
func (db *DB) QueryProfileSQL(ctx context.Context, query string) (*QueryProfile, error) {
	return db.run(ctx, query, true, nil)
}

// QueryStreamProfileSQL is QueryProfileSQL streaming result rows to yield
// instead of buffering them (Rows stays nil).
func (db *DB) QueryStreamProfileSQL(ctx context.Context, query string, yield func(rows [][]any) error) (*QueryProfile, error) {
	return db.run(ctx, query, true, yield)
}

// ExplainSQL compiles a SQL statement and returns the distributed physical
// plan without executing it.
func (db *DB) ExplainSQL(query string) (string, error) {
	n, _, err := db.CompileSQL(query, nil)
	if err != nil {
		return "", err
	}
	return db.Explain(n)
}

// ExecSQL parses, binds and executes one SQL data-modification statement —
// INSERT INTO … VALUES, UPDATE … SET … WHERE, DELETE FROM … WHERE — and
// returns the number of affected rows. Statements are type-checked against
// the catalog at bind time (with line:col errors, like SELECT) and lowered
// onto the engine's trickle-update entry points, so rows flow through
// transactions into the Write-PDTs and become visible to the PDT-merging
// scans immediately after commit (§6):
//
//	n, err := db.ExecSQL(ctx, `update orders set o_orderpriority = '1-URGENT'
//	                           where o_orderdate >= date '1998-01-01'`)
//
// Cancellation before commit aborts the statement's transaction (a committed
// statement is never undone — post-commit flush work runs to completion).
// For scripts with multiple ';'-separated statements, split them first with
// sql.SplitStatements and call ExecSQL per statement.
func (db *DB) ExecSQL(ctx context.Context, stmt string) (int64, error) {
	return sql.Exec(ctx, stmt, db.Engine)
}
