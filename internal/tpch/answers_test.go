package tpch

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"vectorh/internal/baseline"
	"vectorh/internal/plan"
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

	const path = "testdata/answers.golden"
	if *updateGolden {
		var sb strings.Builder
		for q := 1; q <= NumQueries; q++ {
			if got[0][q] != got[1][q] {
				t.Fatalf("Q%02d: engine and baseline disagree; not pinning either:\n%s\n%s", q, got[0][q], got[1][q])
			}
			sb.WriteString(got[0][q])
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [NumQueries + 1]string
	q := 0
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== Q") {
			if _, err := fmt.Sscanf(line, "== Q%d", &q); err != nil || q < 1 || q > NumQueries {
				t.Fatalf("%s: bad section header %q", path, line)
			}
		}
		want[q] += line
	}
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
						who = "engine and baseline agree with each other but not with " + path + ": the SQL text or its compilation changed"
					case want[q]:
						who = fmt.Sprintf("the %s diverges from %s; the %s matches it", s.name, path, sides[1-si].name)
					default:
						who = fmt.Sprintf("the %s diverges from %s; so does the %s, differently", s.name, path, sides[1-si].name)
					}
					t.Errorf("Q%02d: %s\n%s", q, who, firstDiff(got[si][q], want[q]))
				})
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
