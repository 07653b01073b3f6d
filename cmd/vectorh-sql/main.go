// Command vectorh-sql is an interactive SQL shell, a client of the serving
// layer. With -connect it talks to a vectorh-serve instance. Without it, it
// is vectorh-serve and that client in one process: it loads TPC-H into an
// in-process cluster, serves it on a loopback port and drives it through the
// same server.Client, so every statement runs the same way in both modes.
// Statements end with ';'; several statements may share a line (or an input
// buffer) and run in order. INSERT/UPDATE/DELETE run through the PDT
// trickle-update path.
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
//	vectorh> \stats      -- the server's metrics samples
//	vectorh> \rf1 10     -- run refresh stream RF1 (10 new orders) as SQL
//	vectorh> \rf2 10     -- run refresh stream RF2 (delete 10 orders) as SQL
//	vectorh> \quit
//
// \rf1 and \rf2 derive their rows and keys from TPC-H data generated at -sf
// (seed 42); with -connect, -sf must be the server's.
//
// Scripted use: when statements arrive via stdin (or -q) and any of them
// fails, vectorh-sql exits non-zero after processing the remaining input —
// CI smoke steps assert on it. -timeout applies a per-statement deadline; a
// deadline expiring mid-query sends a wire-level cancel.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vectorh"
	"vectorh/internal/core"
	"vectorh/internal/server"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it runs -q's script, or the REPL over stdin, and
// returns the exit status, 1 when any statement failed.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	sh, script, err := open(args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer sh.close()
	if script != "" {
		sh.run(script)
	} else {
		sh.repl(stdin)
	}
	if sh.failed {
		return 1
	}
	return 0
}

// open parses the command line and connects a shell to -connect's server or,
// without it, to a loopback server over a freshly loaded TPC-H database.
// script is -q's text.
func open(args []string, stdout, stderr io.Writer) (sh *shell, script string, err error) {
	fs := flag.NewFlagSet("vectorh-sql", flag.ExitOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor to preload, or the server's with -connect")
	nodes := fs.Int("nodes", 3, "simulated cluster size (embedded mode)")
	partitions := fs.Int("partitions", 6, "table partition count (embedded mode)")
	threads := fs.Int("threads", 2, "exchange threads per node (embedded mode)")
	connect := fs.String("connect", "", "host:port of a vectorh-serve instance (client mode)")
	timeout := fs.Duration("timeout", 0, "per-statement deadline (0 = none); expiring mid-query cancels it")
	timing := fs.Bool("timing", false, "print per-statement wall clock")
	query := fs.String("q", "", "run one statement (or ';'-separated script) and exit")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	sh = &shell{out: stdout, sf: *sf, rfSeed: 1000, timing: *timing, timeout: *timeout,
		stmts: make(map[string]prepared)}
	addr := *connect
	if addr == "" {
		fmt.Fprintf(stderr, "loading TPC-H sf=%g onto %d nodes...\n", *sf, *nodes)
		start := time.Now()
		e, d, err := tpch.Demo(*sf, *nodes, *threads, *partitions)
		if err != nil {
			return nil, "", err
		}
		sh.local, sh.data = e, d
		sh.srv = server.New(&vectorh.DB{Engine: e}, server.Options{})
		bound, err := sh.srv.Listen("127.0.0.1:0")
		if err != nil {
			sh.close()
			return nil, "", err
		}
		addr = bound.String()
		fmt.Fprintf(stderr, "loaded in %v; statements end with ';', \\quit exits\n", time.Since(start).Round(time.Millisecond))
	}
	if sh.c, err = server.Dial(addr); err == nil {
		err = sh.c.Ping()
	}
	if err != nil {
		sh.close()
		return nil, "", err
	}
	if *connect != "" {
		fmt.Fprintf(stderr, "connected to %s\n", addr)
	}
	return sh, *query, nil
}

// shell holds the REPL state: the client every statement runs through, in
// embedded mode the loopback server and engine behind it, the generated
// TPC-H data the refresh streams derive their inserts and delete keys from,
// and the failure flag scripted runs exit on.
type shell struct {
	c      *server.Client
	srv    *server.Server // embedded mode
	local  *core.Engine   // embedded mode: \d lists its tables
	sf     float64
	data   *tpch.Data // generated at sf on the first \rf1/\rf2 with -connect
	rfSeed int64      // bumped per refresh so repeated \rf1 inserts fresh keys
	stmts  map[string]prepared

	out     io.Writer
	timing  bool
	timeout time.Duration
	failed  bool
}

// prepared is a \prepare'd statement; DML templates run with Exec.
type prepared struct {
	*server.PreparedStmt
	dml bool
}

// close disconnects and, in embedded mode, stops the loopback server.
func (sh *shell) close() {
	if sh.c != nil {
		sh.c.Close()
	}
	if sh.srv != nil {
		sh.srv.Close()
	}
}

// fail records a statement failure and prints the error.
func (sh *shell) fail(err error) {
	sh.failed = true
	fmt.Fprintln(sh.out, err)
}

// stmtCtx returns the per-statement context.
func (sh *shell) stmtCtx() (context.Context, context.CancelFunc) {
	if sh.timeout > 0 {
		return context.WithTimeout(context.Background(), sh.timeout)
	}
	return context.Background(), func() {}
}

// repl reads input until EOF or \quit: a line starting with '\' outside a
// statement is a meta command, and a statement runs when a line ends in ';'.
func (sh *shell) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "vectorh> "
	for {
		fmt.Fprint(sh.out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if sh.meta(trimmed) {
				return
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

// meta handles backslash commands; it reports whether the REPL should exit.
func (sh *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\exit":
		return true
	case "\\timing":
		sh.timing = !sh.timing
		fmt.Fprintf(sh.out, "timing %s\n", map[bool]string{true: "on", false: "off"}[sh.timing])
	case "\\stats":
		text, err := sh.c.Metrics()
		if err != nil {
			sh.fail(err)
			return false
		}
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if !strings.HasPrefix(line, "#") {
				fmt.Fprintln(sh.out, line)
			}
		}
	case "\\d":
		if sh.local == nil {
			fmt.Fprintln(sh.out, "\\d requires embedded mode (table listing is not part of the wire protocol yet)")
			return false
		}
		for _, t := range sh.local.SortedTables() {
			s, _ := sh.local.TableSchema(t)
			rows, _ := sh.local.TableRows(t)
			fmt.Fprintf(sh.out, "%-10s %8d rows\n", t, rows)
			for _, f := range s {
				fmt.Fprintf(sh.out, "    %-16s %s\n", f.Name, f.Type)
			}
		}
	case "\\q":
		if len(fields) != 2 {
			fmt.Fprintln(sh.out, "usage: \\q N  (run the TPC-H query N SQL text)")
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
			fmt.Fprintf(sh.out, "no SQL text for %q; available: %v\n", fields[1], avail)
			return false
		}
		fmt.Fprintln(sh.out, text)
		sh.run(text)
	case "\\prepare":
		// \prepare name select ... where x = ? and y < ?
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\prepare"))
		name, text, ok := strings.Cut(rest, " ")
		if !ok || name == "" || strings.TrimSpace(text) == "" {
			fmt.Fprintln(sh.out, "usage: \\prepare NAME SQL-with-? ")
			return false
		}
		text = strings.TrimSuffix(strings.TrimSpace(text), ";")
		ps, err := sh.c.Prepare(text)
		if err != nil {
			sh.fail(err)
			return false
		}
		if old, ok := sh.stmts[name]; ok {
			old.Close()
		}
		sh.stmts[name] = prepared{ps, isDML(text)}
		fmt.Fprintf(sh.out, "prepared %q (%d parameters)\n", name, ps.NumParams())
	case "\\execute":
		// \execute name param1 param2 ... — bare tokens are typed by shape
		// (int, float, else string); quote with '...' to force a string.
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, "usage: \\execute NAME [PARAM ...]")
			return false
		}
		sh.execute(fields[1], parseParams(fields[2:]))
	case "\\rf1", "\\rf2":
		count := 10
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				fmt.Fprintf(sh.out, "usage: %s [N]  (refresh N orders; default 10)\n", fields[0])
				return false
			}
			count = n
		}
		if sh.data == nil {
			sh.data = tpch.Generate(sh.sf, 42)
		}
		sh.rfSeed++
		var stmts []string
		if fields[0] == "\\rf1" {
			stmts = tpch.RF1SQL(sh.data, count, sh.rfSeed)
		} else {
			stmts = tpch.RF2SQL(tpch.RF2Keys(sh.data, count, sh.rfSeed))
		}
		for _, s := range stmts {
			sh.runOne(s)
		}
	default:
		fmt.Fprintf(sh.out, "unknown command %s (try \\d, \\q N, \\timing, \\stats, \\prepare, \\execute, \\rf1 N, \\rf2 N, \\quit)\n", fields[0])
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

// execute runs a named prepared statement with the given values.
func (sh *shell) execute(name string, params []any) {
	ps, ok := sh.stmts[name]
	if !ok {
		sh.fail(fmt.Errorf("no prepared statement %q (use \\prepare)", name))
		return
	}
	ctx, cancel := sh.stmtCtx()
	defer cancel()
	start := time.Now()
	if ps.dml {
		n, err := ps.Exec(ctx, params...)
		sh.printAffected(n, err, start)
		return
	}
	res, err := ps.Query(ctx, params...)
	sh.printResult(res, err, start)
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
	ctx, cancel := sh.stmtCtx()
	defer cancel()
	start := time.Now()
	lower := strings.ToLower(stmt)
	switch {
	case strings.HasPrefix(lower, "explain analyze"):
		// EXPLAIN ANALYZE really runs the query (rows discarded) and prints
		// the plan annotated with actual row counts, per-operator timings,
		// phase spans, and scan IO.
		sh.printText(sh.c.Profile(ctx, stmt[len("explain analyze"):]))
	case strings.HasPrefix(lower, "explain"):
		sh.printText(sh.c.Explain(stmt[len("explain"):]))
	case isDML(stmt):
		n, err := sh.c.Exec(ctx, stmt)
		sh.printAffected(n, err, start)
	default:
		res, err := sh.c.Query(ctx, stmt)
		sh.printResult(res, err, start)
	}
}

// isDML reports whether a statement is an INSERT, UPDATE or DELETE.
func isDML(stmt string) bool {
	lower := strings.ToLower(strings.TrimSpace(stmt))
	return strings.HasPrefix(lower, "insert") || strings.HasPrefix(lower, "update") ||
		strings.HasPrefix(lower, "delete")
}

// printText prints EXPLAIN or EXPLAIN ANALYZE text.
func (sh *shell) printText(text string, err error) {
	if err != nil {
		sh.fail(err)
		return
	}
	fmt.Fprint(sh.out, text)
}

// printAffected reports a DML statement's affected rows.
func (sh *shell) printAffected(n int64, err error, start time.Time) {
	switch {
	case err != nil:
		sh.fail(err)
	case sh.timing:
		fmt.Fprintf(sh.out, "(%d rows affected, %v)\n", n, time.Since(start).Round(time.Microsecond))
	default:
		fmt.Fprintf(sh.out, "(%d rows affected)\n", n)
	}
}

// printResult renders a query result as an aligned table, formatting dates
// and decimals per the output schema, then its row count; with \timing, the
// client round trip and the server's split of it into admission queue wait
// and execution.
func (sh *shell) printResult(res *server.Result, err error, start time.Time) {
	if err != nil {
		sh.fail(err)
		return
	}
	schema, err := server.Schema(res.Schema)
	if err != nil {
		sh.fail(err)
		return
	}
	cells := make([][]string, len(res.Rows)+1)
	cells[0] = schema.Names()
	widths := make([]int, len(schema))
	for c, f := range schema {
		widths[c] = len(f.Name)
	}
	for r, row := range res.Rows {
		cells[r+1] = make([]string, len(schema))
		for c, v := range row {
			s := format(schema[c].Type, v)
			cells[r+1][c] = s
			widths[c] = max(widths[c], len(s))
		}
	}
	for r, row := range cells {
		for c, s := range row {
			if c > 0 {
				fmt.Fprint(sh.out, " | ")
			}
			fmt.Fprintf(sh.out, "%-*s", widths[c], s)
		}
		fmt.Fprintln(sh.out)
		if r == 0 {
			for c, w := range widths {
				if c > 0 {
					fmt.Fprint(sh.out, "-+-")
				}
				fmt.Fprint(sh.out, strings.Repeat("-", w))
			}
			fmt.Fprintln(sh.out)
		}
	}
	if sh.timing {
		fmt.Fprintf(sh.out, "(%d rows, %v round-trip; server exec=%v queue=%v)\n",
			len(res.Rows), time.Since(start).Round(time.Microsecond),
			res.Exec.Round(time.Microsecond), res.Queue.Round(time.Microsecond))
	} else {
		fmt.Fprintf(sh.out, "(%d rows)\n", len(res.Rows))
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
			return vector.FormatDecimal(i)
		}
	}
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.4f", f)
	}
	return fmt.Sprintf("%v", v)
}
