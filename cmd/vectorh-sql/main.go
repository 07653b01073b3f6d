// Command vectorh-sql is an interactive SQL shell. By default it runs over
// an in-process VectorH cluster preloaded with TPC-H data; with -connect it
// becomes a network client of a vectorh-serve instance instead (same
// statements, same rendering, no local engine). Statements end with ';';
// several statements may share a line (or an input buffer) and run in
// order. INSERT/UPDATE/DELETE run through the PDT trickle-update path.
//
//	$ go run ./cmd/vectorh-sql -sf 0.01 -nodes 3
//	$ go run ./cmd/vectorh-sql -connect 127.0.0.1:15432
//	vectorh> select count(*) from lineitem;
//	vectorh> explain select n_name, sum(l_extendedprice) from lineitem ...;
//	vectorh> explain analyze select count(*) from lineitem where l_quantity < 24;
//	vectorh> insert into region (r_regionkey, r_name, r_comment) values (5, 'ATLANTIS', 'sunk');
//	vectorh> update orders set o_orderpriority = '1-URGENT' where o_orderkey = 7; delete from region where r_regionkey = 5;
//	vectorh> \d          -- list tables (embedded mode)
//	vectorh> \q 6        -- run the TPC-H Q6 SQL text
//	vectorh> \prepare q6 select sum(l_extendedprice * l_discount) from lineitem where l_quantity < ?;
//	vectorh> \execute q6 24
//	vectorh> \timing     -- toggle per-statement wall clock
//	vectorh> \rf1 10     -- run refresh stream RF1 (10 new orders) as SQL (embedded mode)
//	vectorh> \rf2 10     -- run refresh stream RF2 (delete 10 orders) as SQL (embedded mode)
//	vectorh> \quit
//
// Scripted use: when statements arrive via stdin (or -q) and any of them
// fails, vectorh-sql exits non-zero after processing the remaining input —
// CI smoke steps assert on it. -timeout applies a per-statement deadline;
// in -connect mode a deadline expiring mid-query sends a wire-level cancel.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vectorh"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/server"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to preload (embedded mode)")
	nodes := flag.Int("nodes", 3, "simulated cluster size (embedded mode)")
	partitions := flag.Int("partitions", 6, "table partition count (embedded mode)")
	threads := flag.Int("threads", 2, "exchange threads per node (embedded mode)")
	connect := flag.String("connect", "", "host:port of a vectorh-serve instance (client mode)")
	timeout := flag.Duration("timeout", 0, "per-statement deadline (0 = none); expiring mid-query cancels it")
	timing := flag.Bool("timing", false, "print per-statement wall clock")
	query := flag.String("q", "", "run one statement (or ';'-separated script) and exit")
	flag.Parse()

	sh := &shell{timing: *timing, timeout: *timeout}
	if *connect != "" {
		cl, err := server.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		if err := cl.Ping(); err != nil {
			fatal(err)
		}
		sh.remote = cl
		fmt.Fprintf(os.Stderr, "connected to %s\n", *connect)
	} else {
		names := make([]string, *nodes)
		for i := range names {
			names[i] = fmt.Sprintf("node%d", i+1)
		}
		db, err := vectorh.Open(vectorh.Config{
			Nodes:          names,
			ThreadsPerNode: *threads,
			BlockSize:      1 << 18,
			Format:         colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 2048},
			MsgBytes:       16 << 10,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loading TPC-H sf=%g onto %d nodes...\n", *sf, *nodes)
		start := time.Now()
		d := tpch.Generate(*sf, 42)
		if err := tpch.LoadIntoEngine(db.Engine, d, *partitions); err != nil {
			fatal(err)
		}
		sh.db = db
		sh.data = d
		sh.rfSeed = 1000
		fmt.Fprintf(os.Stderr, "loaded in %v; statements end with ';', \\quit exits\n", time.Since(start).Round(time.Millisecond))
	}

	if *query != "" {
		sh.run(*query)
		sh.exit()
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "vectorh> "
	for {
		fmt.Print(prompt)
		if !in.Scan() {
			fmt.Println()
			sh.exit()
		}
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if sh.meta(trimmed) {
				sh.exit()
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			sh.run(buf.String())
			buf.Reset()
			prompt = "vectorh> "
		} else if buf.Len() > 0 {
			prompt = "      -> "
		}
	}
}

// shell holds the REPL state: an embedded database (plus the generated
// TPC-H data the refresh-stream commands derive their inserts and delete
// keys from) or a remote serving session, and the failure flag scripted
// runs exit on.
type shell struct {
	db     *vectorh.DB
	data   *tpch.Data
	remote *server.Client
	rfSeed int64 // bumped per refresh so repeated \rf1 inserts fresh keys

	timing  bool
	timeout time.Duration
	failed  bool

	// named prepared statements (\prepare); exactly one side is set per
	// entry depending on mode.
	wireStmts  map[string]*server.PreparedStmt
	localStmts map[string]*sql.Prepared
}

// exit terminates the process: non-zero when any statement failed, so
// scripts piped through stdin can be asserted on.
func (sh *shell) exit() {
	if sh.failed {
		os.Exit(1)
	}
	os.Exit(0)
}

// fail records a statement failure and prints the error.
func (sh *shell) fail(err error) {
	sh.failed = true
	fmt.Println(err)
}

// stmtCtx returns the per-statement context.
func (sh *shell) stmtCtx() (context.Context, context.CancelFunc) {
	if sh.timeout > 0 {
		return context.WithTimeout(context.Background(), sh.timeout)
	}
	return context.Background(), func() {}
}

// meta handles backslash commands; it reports whether the REPL should exit.
func (sh *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\exit":
		return true
	case "\\timing":
		sh.timing = !sh.timing
		fmt.Printf("timing %s\n", map[bool]string{true: "on", false: "off"}[sh.timing])
	case "\\stats":
		if sh.remote == nil {
			fmt.Println("\\stats requires -connect")
			return false
		}
		st, err := sh.remote.Stats()
		if err != nil {
			sh.fail(err)
			return false
		}
		fmt.Printf("sessions=%d active=%d queued=%d completed=%d cancelled=%d failed=%d rejected=%d rows=%d stmts=%d max_concurrent=%d\n",
			st.Sessions, st.ActiveQueries, st.QueuedQueries, st.CompletedQueries,
			st.CancelledQueries, st.FailedQueries, st.RejectedQueries, st.RowsServed,
			st.OpenStatements, st.MaxConcurrent)
		if pc := st.PlanCache; pc != nil {
			total := pc.Hits + pc.Misses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(pc.Hits) / float64(total)
			}
			fmt.Printf("plan cache: hits=%d misses=%d (%.1f%% hit rate) evictions=%d invalidations=%d entries=%d\n",
				pc.Hits, pc.Misses, rate, pc.Evictions, pc.Invalidations, pc.Entries)
		}
		if p := st.Process; p != nil {
			fmt.Printf("process: uptime=%s goroutines=%d heap=%.1fMB gc=%d (%.2fms paused) alloc=%dMB\n",
				(time.Duration(p.UptimeSec) * time.Second).String(), p.Goroutines,
				float64(p.HeapBytes)/(1<<20), p.NumGC,
				float64(p.GCPauseNs)/1e6, p.TotalAllocMB)
		}
		if sc := st.Scan; sc != nil {
			fmt.Printf("scan: blocks=%d decoded=%.1fMB skipped=%.1fMB materialized=%.1fMB pruned=%d cache_hits=%d\n",
				sc.BlocksRead, float64(sc.BytesDecoded)/(1<<20), float64(sc.BytesSkipped)/(1<<20),
				float64(sc.BytesMaterialized)/(1<<20), sc.SpansPruned, sc.CacheHits)
		}
		for _, ts := range st.Storage {
			if ts.EncodedBytes == 0 {
				continue
			}
			fmt.Printf("compression: %-10s %5.2fx (%.1fMB raw -> %.1fMB encoded)\n",
				ts.Table, ts.Ratio, float64(ts.RawBytes)/(1<<20), float64(ts.EncodedBytes)/(1<<20))
		}
		if st.SlowQueries > 0 {
			fmt.Printf("slow queries logged: %d\n", st.SlowQueries)
		}
	case "\\d":
		if sh.db == nil {
			fmt.Println("\\d requires embedded mode (table listing is not part of the wire protocol yet)")
			return false
		}
		for _, t := range sh.db.SortedTables() {
			s, _ := sh.db.TableSchema(t)
			rows, _ := sh.db.TableRows(t)
			fmt.Printf("%-10s %8d rows\n", t, rows)
			for _, f := range s {
				fmt.Printf("    %-16s %s\n", f.Name, f.Type)
			}
		}
	case "\\q":
		if len(fields) != 2 {
			fmt.Println("usage: \\q N  (run the TPC-H query N SQL text)")
			return false
		}
		n, err := strconv.Atoi(fields[1])
		text, ok := tpch.SQLQueries[n]
		if err != nil || !ok {
			var avail []int
			for q := range tpch.SQLQueries {
				avail = append(avail, q)
			}
			sort.Ints(avail)
			fmt.Printf("no SQL text for %q; available: %v\n", fields[1], avail)
			return false
		}
		fmt.Println(text)
		sh.run(text)
	case "\\prepare":
		// \prepare name select ... where x = ? and y < ?
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\prepare"))
		name, text, ok := strings.Cut(rest, " ")
		if !ok || name == "" || strings.TrimSpace(text) == "" {
			fmt.Println("usage: \\prepare NAME SQL-with-? ")
			return false
		}
		text = strings.TrimSuffix(strings.TrimSpace(text), ";")
		if sh.remote != nil {
			ps, err := sh.remote.Prepare(text)
			if err != nil {
				sh.fail(err)
				return false
			}
			if sh.wireStmts == nil {
				sh.wireStmts = make(map[string]*server.PreparedStmt)
			}
			if old := sh.wireStmts[name]; old != nil {
				old.Close()
			}
			sh.wireStmts[name] = ps
			fmt.Printf("prepared %q (%d parameters)\n", name, ps.NumParams())
		} else {
			ps, err := sql.Prepare(text)
			if err != nil {
				sh.fail(err)
				return false
			}
			if sh.localStmts == nil {
				sh.localStmts = make(map[string]*sql.Prepared)
			}
			sh.localStmts[name] = ps
			fmt.Printf("prepared %q (%d parameters)\n", name, ps.NumParams())
		}
	case "\\execute":
		// \execute name param1 param2 ... — bare tokens are typed by shape
		// (int, float, else string); quote with '...' to force a string.
		if len(fields) < 2 {
			fmt.Println("usage: \\execute NAME [PARAM ...]")
			return false
		}
		sh.executeStmt(fields[1], parseParams(fields[2:]))
	case "\\rf1", "\\rf2":
		if sh.db == nil {
			fmt.Println(fields[0] + " requires embedded mode")
			return false
		}
		count := 10
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				fmt.Printf("usage: %s [N]  (refresh N orders; default 10)\n", fields[0])
				return false
			}
			count = n
		}
		sh.rfSeed++
		var stmts []string
		if fields[0] == "\\rf1" {
			stmts = tpch.RF1SQL(sh.data, count, sh.rfSeed)
		} else {
			stmts = tpch.RF2SQL(tpch.RF2Keys(sh.data, count, sh.rfSeed))
		}
		for _, s := range stmts {
			sh.execDML(s)
		}
	default:
		fmt.Printf("unknown command %s (try \\d, \\q N, \\timing, \\stats, \\prepare, \\execute, \\rf1 N, \\rf2 N, \\quit)\n", fields[0])
	}
	return false
}

// parseParams types bare REPL tokens by shape: integer, float, else string
// (surrounding single quotes stripped).
func parseParams(args []string) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if n, err := strconv.ParseInt(a, 10, 64); err == nil {
			out[i] = n
			continue
		}
		if f, err := strconv.ParseFloat(a, 64); err == nil {
			out[i] = f
			continue
		}
		out[i] = strings.Trim(a, "'")
	}
	return out
}

// executeStmt runs a named prepared statement with the given values.
func (sh *shell) executeStmt(name string, params []any) {
	ctx, cancel := sh.stmtCtx()
	defer cancel()
	start := time.Now()
	if sh.remote != nil {
		ps := sh.wireStmts[name]
		if ps == nil {
			sh.fail(fmt.Errorf("no prepared statement %q (use \\prepare)", name))
			return
		}
		res, err := ps.Query(ctx, params...)
		if err != nil {
			sh.fail(err)
			return
		}
		printResult(wireSchema(res.Schema), res.Rows)
		sh.printTiming(len(res.Rows), start)
		return
	}
	ps := sh.localStmts[name]
	if ps == nil {
		sh.fail(fmt.Errorf("no prepared statement %q (use \\prepare)", name))
		return
	}
	bound, err := ps.Bind(params)
	if err != nil {
		sh.fail(err)
		return
	}
	if !ps.IsSelect() {
		sh.execDML(bound)
		return
	}
	schema, rows, err := sh.localQuery(ctx, bound)
	if err != nil {
		sh.fail(err)
		return
	}
	printResult(schema, rows)
	sh.printTiming(len(rows), start)
}

// printTiming prints the row count, with wall clock when \timing is on.
func (sh *shell) printTiming(rows int, start time.Time) {
	if sh.timing {
		fmt.Printf("(%d rows, %v)\n", rows, time.Since(start).Round(time.Microsecond))
	} else {
		fmt.Printf("(%d rows)\n", rows)
	}
}

// run executes the buffered input: each ';'-separated statement in order
// (EXPLAIN prefix shows the distributed plan, DML reports affected rows).
func (sh *shell) run(input string) {
	for _, stmt := range sql.SplitStatements(input) {
		sh.runOne(stmt)
	}
}

func (sh *shell) runOne(stmt string) {
	stmt = strings.TrimSuffix(strings.TrimSpace(stmt), ";")
	if stmt == "" {
		return
	}
	lower := strings.ToLower(stmt)
	switch {
	case strings.HasPrefix(lower, "explain analyze"):
		// EXPLAIN ANALYZE really runs the query (rows discarded) and prints
		// the plan annotated with actual row counts, per-operator timings,
		// phase spans, and scan IO.
		body := stmt[len("explain analyze"):]
		ctx, cancel := sh.stmtCtx()
		defer cancel()
		var text string
		var err error
		if sh.remote != nil {
			text, err = sh.remote.Profile(ctx, body)
		} else {
			var p *vectorh.QueryProfile
			p, err = sh.db.QueryProfileSQL(ctx, body)
			if err == nil {
				text = p.Render()
			}
		}
		if err != nil {
			sh.fail(err)
			return
		}
		fmt.Print(text)
		return
	case strings.HasPrefix(lower, "explain"):
		var plan string
		var err error
		if sh.remote != nil {
			plan, err = sh.remote.Explain(stmt[len("explain"):])
		} else {
			plan, err = sh.db.ExplainSQL(stmt[len("explain"):])
		}
		if err != nil {
			sh.fail(err)
			return
		}
		fmt.Print(plan)
		return
	case strings.HasPrefix(lower, "insert"), strings.HasPrefix(lower, "update"),
		strings.HasPrefix(lower, "delete"):
		sh.execDML(stmt)
		return
	}
	sh.runQuery(stmt)
}

// localQuery compiles a SELECT through the embedded DB's plan cache and runs
// it under ctx, returning the output schema with all rows.
func (sh *shell) localQuery(ctx context.Context, stmt string) (vectorh.Schema, [][]any, error) {
	n, schema, err := sh.db.CompileSQL(stmt, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := sh.db.Run(ctx, n, core.QueryOptions{}, nil)
	if err != nil {
		return nil, nil, err
	}
	return schema, res.Rows, nil
}

func (sh *shell) runQuery(stmt string) {
	ctx, cancel := sh.stmtCtx()
	defer cancel()
	start := time.Now()
	var schema vectorh.Schema
	var rows [][]any
	var err error
	var queue, exec time.Duration
	if sh.remote != nil {
		var res *server.Result
		res, err = sh.remote.Query(ctx, stmt)
		if err == nil {
			rows = res.Rows
			schema = wireSchema(res.Schema)
			queue, exec = res.Queue, res.Exec
		}
	} else {
		schema, rows, err = sh.localQuery(ctx, stmt)
	}
	if err != nil {
		sh.fail(err)
		return
	}
	printResult(schema, rows)
	switch {
	case sh.timing && exec > 0:
		// Client round-trip plus the server-side split: admission queue wait
		// vs actual execution.
		fmt.Printf("(%d rows, %v round-trip; server exec=%v queue=%v)\n",
			len(rows), time.Since(start).Round(time.Microsecond),
			exec.Round(time.Microsecond), queue.Round(time.Microsecond))
	case sh.timing:
		fmt.Printf("(%d rows, %v)\n", len(rows), time.Since(start).Round(time.Microsecond))
	default:
		fmt.Printf("(%d rows)\n", len(rows))
	}
}

// execDML runs one INSERT/UPDATE/DELETE through the PDT trickle-update path.
func (sh *shell) execDML(stmt string) {
	ctx, cancel := sh.stmtCtx()
	defer cancel()
	start := time.Now()
	var n int64
	var err error
	if sh.remote != nil {
		n, err = sh.remote.Exec(ctx, stmt)
	} else {
		n, err = sh.db.ExecSQL(ctx, stmt)
	}
	if err != nil {
		sh.fail(err)
		return
	}
	if sh.timing {
		fmt.Printf("(%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
	} else {
		fmt.Printf("(%d rows affected)\n", n)
	}
}

// wireSchema converts wire column descriptors to a renderable schema.
func wireSchema(desc []server.ColDesc) vectorh.Schema {
	s := make(vectorh.Schema, len(desc))
	for i, d := range desc {
		t := vectorh.TString
		switch d.Kind {
		case "int32":
			t = vectorh.TInt32
		case "int64":
			t = vectorh.TInt64
		case "float64":
			t = vectorh.TFloat64
		}
		switch d.Logical {
		case "date":
			t = vectorh.TDate
		case "decimal":
			t = vectorh.TDecimal
		}
		s[i] = vectorh.Field{Name: d.Name, Type: t}
	}
	return s
}

// printResult renders rows as an aligned table, formatting dates and
// decimals per the output schema.
func printResult(schema vectorh.Schema, rows [][]any) {
	cells := make([][]string, len(rows)+1)
	cells[0] = make([]string, len(schema))
	widths := make([]int, len(schema))
	for c, f := range schema {
		cells[0][c] = f.Name
		widths[c] = len(f.Name)
	}
	for r, row := range rows {
		cells[r+1] = make([]string, len(schema))
		for c, v := range row {
			s := format(schema[c].Type, v)
			cells[r+1][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for r, row := range cells {
		for c, s := range row {
			if c > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[c], s)
		}
		fmt.Println()
		if r == 0 {
			for c, w := range widths {
				if c > 0 {
					fmt.Print("-+-")
				}
				fmt.Print(strings.Repeat("-", w))
			}
			fmt.Println()
		}
	}
}

// format renders one value according to its logical column type.
func format(t vector.Type, v any) string {
	switch t.Logical {
	case vector.Date:
		if d, ok := v.(int32); ok {
			return vector.FormatDate(d)
		}
	case vector.Decimal:
		if i, ok := v.(int64); ok {
			sign := ""
			if i < 0 {
				sign, i = "-", -i
			}
			return fmt.Sprintf("%s%d.%02d", sign, i/100, i%100)
		}
	}
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.4f", f)
	}
	return fmt.Sprintf("%v", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
