package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"

	"vectorh"
	"vectorh/internal/server"
	"vectorh/internal/tpch"
)

// replScript covers every statement kind the shell runs; failingLine is the
// one statement in it that fails.
var replScript = []string{
	"select n_name, count(*) as cnt from nation join region on n_regionkey = r_regionkey group by n_name order by n_name;",
	"explain select count(*) as n from lineitem where l_quantity < 24;",
	"explain analyze select count(*) as n from lineitem where l_quantity < 24;",
	"insert into region (r_regionkey, r_name, r_comment) values (7, 'ATLANTIS', 'sunk');",
	"delete from region where r_regionkey = 7;",
	`\prepare p select count(*) as n from lineitem where l_discount > ?`,
	`\execute p 0.0000001`,
	`\q 6`,
	`\rf1 2`,
	"select count(*) as n from orders;",
	failingLine,
	`\stats`,
}

const failingLine = "select nosuch from region;"

var (
	durations     = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)\b`)
	buckets       = regexp.MustCompile(`(?m)^vectorh_\S+_bucket\{.*\n`) // the set printed follows the timings
	metricSamples = regexp.MustCompile(`(?m)^(vectorh_\S+) \S+$`)
)

// drive feeds replScript line by line to a shell opened with args and returns
// its output with timings and metric values masked. Only failingLine may set
// the exit flag.
func drive(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	sh, _, err := open(args, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.close()
	for _, line := range replScript {
		sh.repl(strings.NewReader(line + "\n"))
		if sh.failed != (line == failingLine) {
			t.Fatalf("%v: %q set the exit flag to %v:\n%s", args, line, sh.failed, out.String())
		}
		sh.failed = false
	}
	masked := buckets.ReplaceAllString(durations.ReplaceAllString(out.String(), "T"), "")
	return metricSamples.ReplaceAllString(masked, "$1 N")
}

// TestREPLSameInBothModes runs one script through the REPL embedded and with
// -connect against a separately started server over an identically loaded
// database: both modes run every statement through server.Client, so the
// outputs are identical once timings and metric values are masked.
func TestREPLSameInBothModes(t *testing.T) {
	embedded := drive(t, "-sf", "0.005")

	e, _, err := tpch.Demo(0.005, 3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(&vectorh.DB{Engine: e}, server.Options{})
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote := drive(t, "-sf", "0.005", "-connect", addr.String())

	if embedded != remote {
		t.Fatalf("embedded and -connect output differ:\n--- embedded\n%s\n--- -connect\n%s", embedded, remote)
	}
	for _, want := range []string{
		"ALGERIA ", "MScan[lineitem]", "actual rows=", "(1 rows affected)", `prepared "p" (1 parameters)`,
		"revenue", "(12 rows affected)", `unknown column "nosuch"`, "vectorh_queries_completed_total N",
		"vectorh_process_gc_cycles_total N",
	} {
		if !strings.Contains(embedded, want) {
			t.Errorf("output lacks %q:\n%s", want, embedded)
		}
	}

	// -q scripts exit non-zero exactly when a statement fails.
	for q, want := range map[string]int{"select count(*) as n from region": 0, failingLine: 1} {
		if got := run([]string{"-connect", addr.String(), "-q", q}, nil, io.Discard, io.Discard); got != want {
			t.Errorf("-q %q exited %d, want %d", q, got, want)
		}
	}
}
