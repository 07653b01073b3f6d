package tpch

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"vectorh/internal/baseline"
	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
)

// answerOrdered holds the queries whose ORDER BY fixes the whole row sequence
// through exact keys (group-by or unique columns and counts; the set
// bench/stmts.go checks in order). Their rows are pinned in result order; the
// others sort by a float sum or leave ties open, so their rows are pinned
// sorted.
var answerOrdered = map[int]bool{1: true, 2: true, 4: true, 7: true, 8: true, 9: true, 12: true,
	13: true, 15: true, 16: true, 20: true, 21: true, 22: true}

// renderAnswer is one query's section of answers.golden: a header and the
// rows rendered by renderRows (floats at 4 decimals), in result order where
// answerOrdered says so and sorted otherwise. A failed query renders its error
// so the mismatch report shows it.
func renderAnswer(q int, rows [][]any, err error) string {
	if err != nil {
		return fmt.Sprintf("== Q%02d error: %v\n", q, err)
	}
	lines := renderRows(rows)
	if !answerOrdered[q] {
		sort.Strings(lines)
	}
	return fmt.Sprintf("== Q%02d %d rows\n%s", q, len(lines), strings.Join(append(lines, ""), "\n"))
}

// TestTPCHAnswers pins the answers of the 22 TPC-H SQL texts at SF 0.01,
// seed 7, in testdata/answers.golden and checks both the engine and the
// tuple-at-a-time baseline (Hive flavor) against it, each side compiling the
// same text against its own catalog. A failure names the side that diverged;
// when both sides agree with each other but not with the golden, the text or
// its compilation changed. `-update` rewrites the golden, and only when the
// two sides agree on every query.
func TestTPCHAnswers(t *testing.T) {
	if len(SQLQueries) != NumQueries {
		t.Fatalf("want SQL text for all %d TPC-H queries, have %d", NumQueries, len(SQLQueries))
	}
	d := Generate(0.01, 7)
	eng := newEngine(t)
	if err := LoadIntoEngine(eng, d, 6); err != nil {
		t.Fatal(err)
	}
	base := baseline.New(baseline.Hive)
	if err := LoadIntoBaseline(base, d); err != nil {
		t.Fatal(err)
	}
	sides := []struct {
		name string
		cat  plan.Catalog
		run  func(plan.Node) ([][]any, error)
	}{
		{"engine", eng, func(n plan.Node) ([][]any, error) { return queryRows(eng, n) }},
		{"baseline", base, base.Query},
	}
	got := make([][NumQueries + 1]string, len(sides))
	for si, s := range sides {
		for q := 1; q <= NumQueries; q++ {
			p, err := BuildQuery(q, s.cat)
			var rows [][]any
			if err == nil {
				rows, err = s.run(p)
			}
			got[si][q] = renderAnswer(q, rows, err)
		}
	}

	if *updateGolden {
		var sb strings.Builder
		for q := 1; q <= NumQueries; q++ {
			if got[0][q] != got[1][q] {
				t.Fatalf("Q%02d: engine and baseline disagree; not pinning either:\n%s\n%s", q, got[0][q], got[1][q])
			}
			sb.WriteString(got[0][q])
		}
		if err := os.WriteFile(answersPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readAnswers(t)
	for si, s := range sides {
		other := got[1-si]
		t.Run(s.name, func(t *testing.T) {
			for q := 1; q <= NumQueries; q++ {
				t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
					if got[si][q] == want[q] {
						return
					}
					var who string
					switch other[q] {
					case got[si][q]:
						who = "engine and baseline agree with each other but not with " + answersPath + ": the SQL text or its compilation changed"
					case want[q]:
						who = fmt.Sprintf("the %s diverges from %s; the %s matches it", s.name, answersPath, sides[1-si].name)
					default:
						who = fmt.Sprintf("the %s diverges from %s; so does the %s, differently", s.name, answersPath, sides[1-si].name)
					}
					t.Errorf("Q%02d: %s\n%s", q, who, firstDiff(got[si][q], want[q]))
				})
			}
		})
	}
}

const answersPath = "testdata/answers.golden"

// readAnswers splits answers.golden into its per-query sections.
func readAnswers(t *testing.T) (want [NumQueries + 1]string) {
	t.Helper()
	raw, err := os.ReadFile(answersPath)
	if err != nil {
		t.Fatal(err)
	}
	q := 0
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== Q") {
			if _, err := fmt.Sscanf(line, "== Q%d", &q); err != nil || q < 1 || q > NumQueries {
				t.Fatalf("%s: bad section header %q", answersPath, line)
			}
		}
		want[q] += line
	}
	return want
}

// TestTopologyParity runs the 22 SQL texts on topologies the other gates do
// not: one node; 4 nodes over 3 partitions, where one node holds no
// partition and so no probe stream of a partitioned join; 1 and 4 threads
// (exchange streams and partitions) per node, so a replicated build's one
// table per node has one prober or four; and the default topology without
// the ReplicateBuild rule. Every answer must match answers.golden. Messages
// are small, so an exchange that sends to a port nobody drains fills it and
// blocks; each query runs under a deadline, which turns that into a failure
// instead of a hang.
func TestTopologyParity(t *testing.T) {
	d := Generate(0.01, 7)
	want := readAnswers(t)
	for _, tc := range []struct {
		name                  string
		nodes, parts, threads int
		disable               rewriter.Rules
	}{
		{"1 node", 1, 2, 2, 0},
		{"4 nodes x 3 partitions", 4, 3, 2, 0},
		{"1 thread per node", 3, 3, 1, 0},
		{"4 threads per node", 3, 12, 4, 0},
		{"no replicated build", 3, 6, 2, rewriter.ReplicateBuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := make([]string, tc.nodes)
			for i := range names {
				names[i] = fmt.Sprintf("n%d", i+1)
			}
			eng, err := core.New(core.Config{
				Nodes: names, ThreadsPerNode: tc.threads, BlockSize: 1 << 18,
				Format:   colstore.Format{BlockSize: 16 << 10, BlocksPerChunk: 64, MaxRowsPerBlock: 128},
				MsgBytes: 1 << 10, // small messages: more of them than a channel holds

			})
			if err != nil {
				t.Fatal(err)
			}
			if err := LoadIntoEngine(eng, d, tc.parts); err != nil {
				t.Fatal(err)
			}
			for q := 1; q <= NumQueries; q++ {
				p, err := BuildQuery(q, eng)
				var rows [][]any
				if err == nil {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					var res *core.QueryResult
					if res, err = eng.Run(ctx, p, core.QueryOptions{Disable: tc.disable}, nil); err == nil {
						rows = res.Rows
					}
					cancel()
				}
				if got := renderAnswer(q, rows, err); got != want[q] {
					t.Errorf("Q%02d: %s", q, firstDiff(got, want[q]))
				}
			}
		})
	}
}

// firstDiff reports the first line at which got and want differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	return ""
}
