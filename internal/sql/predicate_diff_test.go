package sql

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vectorh/internal/colstore"
	"vectorh/internal/core"
	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// The generated-predicate differential: one small table with a column of every
// storage shape a predicate can meet, WHERE clauses from a seeded generator,
// and the rule that decides who evaluates them switched every way round. With
// ScanPushdown on, the scan is the only thing that filters — no Select above
// it re-checks — so a disagreement between its verdicts, its skip bounds and
// the predicate is a silently wrong answer that only a comparison against the
// other paths finds.

// predRow is the Go-side model of one row of table p.
type predRow struct {
	k int64   // unique key, partition key
	a int32   // int32, small and signed
	b int64   // int64, ascending with k, the int64 limits at a few rows
	d int32   // date, ascending with k: MinMax skipping works on it
	m int64   // decimal(·,2) storage
	f float64 // float64
	s string  // few distinct values, some empty: PDICT blocks
	c string  // unique per row: raw+LZ blocks
}

var predWords = []string{"", "north", "east", "south", "west", "nor", "northern", "e", "zed", "eastern"}

func predTableRow(k int64) predRow {
	r := predRow{
		k: k,
		a: int32(k%97) - 40,
		b: k*1000003 - 1500000000,
		d: vector.MustDate("1995-01-01") + int32(k/10),
		m: (k*37)%20000 - 5000,
		f: float64(k%100) + 0.5*float64(k%2),
		s: predWords[k%10],
		c: fmt.Sprintf("row-%05d-%s", k, predWords[(k/7)%10]),
	}
	switch k {
	case 11:
		r.b = math.MaxInt64
	case 12:
		r.b = math.MinInt64
	case 13:
		r.a, r.m = math.MaxInt32, math.MaxInt64
	case 14:
		r.a, r.m = math.MinInt32, math.MinInt64
	}
	return r
}

var predSchema = vector.Schema{
	{Name: "k", Type: vector.TInt64}, {Name: "a", Type: vector.TInt32}, {Name: "b", Type: vector.TInt64},
	{Name: "d", Type: vector.TDate}, {Name: "m", Type: vector.TDecimal}, {Name: "f", Type: vector.TFloat64},
	{Name: "s", Type: vector.TString}, {Name: "c", Type: vector.TString},
}

func (r predRow) values() []any { return []any{r.k, r.a, r.b, r.d, r.m, r.f, r.s, r.c} }

// sqlValues renders the row as an INSERT VALUES tuple.
func (r predRow) sqlValues() string {
	sign, abs := "", r.m
	if abs < 0 {
		sign, abs = "-", -abs
	}
	return fmt.Sprintf("(%d, %d, %d, date '%s', %s%d.%02d, %v, '%s', '%s')",
		r.k, r.a, r.b, vector.FormatDate(r.d), sign, abs/100, abs%100, fmt.Sprintf("%.1f", r.f), r.s, r.c)
}

func newPredEngine(t *testing.T, rows []predRow) *core.Engine {
	t.Helper()
	e, err := core.New(core.Config{
		Nodes:          []string{"n1", "n2", "n3"},
		ThreadsPerNode: 2,
		BlockSize:      1 << 16,
		Format:         colstore.Format{BlockSize: 4096, BlocksPerChunk: 16, MaxRowsPerBlock: 256},
		MsgBytes:       4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(rewriter.TableInfo{Name: "p", Schema: predSchema, PartitionKey: "k", Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatchForSchema(predSchema, len(rows))
	for _, r := range rows {
		b.AppendRow(r.values()...)
	}
	if err := e.Load("p", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	return e
}

// predGen generates well-typed WHERE clauses over p.
type predGen struct{ r *rand.Rand }

func (g *predGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *predGen) cmp() string { return g.pick("<", "<=", ">", ">=", "=", "<>") }

// lit returns a literal comparable with column col, now and then at or past
// the limits of its storage type.
func (g *predGen) lit(col string) string {
	switch col {
	case "a":
		return g.pick(fmt.Sprint(g.r.Intn(110)-50), fmt.Sprint(g.r.Intn(110)-50), "2147483647", "-2147483648",
			"2147483648", "9223372036854775807", "7.5")
	case "b", "k":
		return g.pick(fmt.Sprint(g.r.Int63n(3000)*1000003-1500000000), fmt.Sprint(g.r.Intn(3000)),
			"9223372036854775807", "-9223372036854775807", "0", "1000000000.5")
	case "d":
		return fmt.Sprintf("date '%s'", vector.FormatDate(vector.MustDate("1994-12-01")+int32(g.r.Intn(380))))
	case "m":
		return g.pick(fmt.Sprintf("%d.%02d", g.r.Intn(150), g.r.Intn(100)), fmt.Sprint(g.r.Intn(150)), "-12.5", "0",
			"100000000000000000000.0", "-100000000000000000000.0", "92233720368547758.07", "92233720368547760")
	case "f":
		return g.pick(fmt.Sprintf("%d.5", g.r.Intn(100)), fmt.Sprint(g.r.Intn(100)), "50.0", "-1", "date '1970-01-11'")
	case "s":
		return "'" + g.pick(predWords...) + "'"
	default:
		return fmt.Sprintf("'row-%05d-%s'", g.r.Intn(3000), g.pick(predWords...))
	}
}

func (g *predGen) like() string {
	frag := g.pick("nor", "north", "e", "row-0", "row-00", "st", "0", "-", "th", "zed", "")
	switch g.r.Intn(6) {
	case 0:
		return frag // no wildcard
	case 1:
		return frag + "%"
	case 2:
		return "%" + frag
	case 3:
		return "%" + frag + "%"
	case 4:
		return g.pick("row-0", "n", "") + "%" + frag
	default:
		return g.pick("%", "%%", "")
	}
}

func (g *predGen) atom() string {
	num := func() string { return g.pick("a", "b", "m", "f", "k") }
	str := func() string { return g.pick("s", "c") }
	switch g.r.Intn(12) {
	case 0, 1: // column ⋚ literal
		col := g.pick("a", "b", "d", "m", "f", "s", "c", "k")
		return fmt.Sprintf("%s %s %s", col, g.cmp(), g.lit(col))
	case 2: // literal ⋚ column
		col := g.pick("a", "b", "d", "m", "f", "s", "c")
		return fmt.Sprintf("%s %s %s", g.lit(col), g.cmp(), col)
	case 3:
		col := g.pick("a", "b", "d", "m", "f", "s", "k")
		return fmt.Sprintf("%s between %s and %s", col, g.lit(col), g.lit(col))
	case 4:
		not := g.pick("", "not ")
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("%s %sin (%d, %d, %d)", g.pick("a", "k", "b", "m", "f"), not, g.r.Intn(50), g.r.Intn(3000), g.r.Intn(100))
		}
		return fmt.Sprintf("%s %sin ('%s', '%s')", str(), not, g.pick(predWords...), g.pick(predWords...))
	case 5, 6:
		return fmt.Sprintf("%s %slike '%s'", str(), g.pick("", "", "not "), g.like())
	case 7: // column ⋚ column
		if g.r.Intn(3) == 0 {
			return fmt.Sprintf("s %s c", g.cmp())
		}
		return fmt.Sprintf("%s %s %s", num(), g.cmp(), num())
	case 8, 9: // arithmetic
		col := num()
		return fmt.Sprintf("%s %s %d %s %s", col, g.pick("+", "-", "*"), g.r.Intn(5)+1, g.cmp(), g.pick(g.lit(col), num()))
	case 10: // a contradiction, or nearly one, on one column
		col := g.pick("a", "b", "m", "f", "s", "d")
		v := g.lit(col)
		return fmt.Sprintf("%s %s %s and %s %s %s", col, g.pick(">", "<", ">=", "<>"), v, col, g.pick("=", "<=", "<"), v)
	default:
		return fmt.Sprintf("f / %d %s %s", g.r.Intn(4)+1, g.cmp(), g.pick("a", "12.5"))
	}
}

func (g *predGen) pred(depth int) string {
	switch x := g.r.Intn(10); {
	case depth > 0 && x < 2:
		return "(" + g.pred(depth-1) + " and " + g.pred(depth-1) + ")"
	case depth > 0 && x < 4:
		return "(" + g.pred(depth-1) + " or " + g.pred(depth-1) + ")"
	case depth > 0 && x < 5:
		return "not (" + g.pred(depth-1) + ")"
	}
	return g.atom()
}

// where returns a conjunction of one to four generated predicates.
func (g *predGen) where() string {
	parts := make([]string, 1+g.r.Intn(4))
	for i := range parts {
		parts[i] = g.pred(2)
	}
	return strings.Join(parts, " and ")
}

// allRules are the four ways the scan-side rules can be set; the last, both
// off, is the reference path (value-space scan, Select above it).
var allRules = []rewriter.Rules{0, rewriter.ScanPushdown, rewriter.CompressedExec, rewriter.ScanPushdown | rewriter.CompressedExec}

// sameUnderAllRules runs the statement under every setting of the scan-side
// rules and fails unless all return the reference path's rows, compared
// exactly after sorting on the first column, a unique int64 (exchange arrival
// order is not deterministic; none of the statements aggregates floats). It
// returns those rows.
func sameUnderAllRules(t *testing.T, e *core.Engine, phase, stmt string) [][]any {
	t.Helper()
	p, err := Compile(stmt, e)
	if err != nil {
		t.Fatalf("%s: compile %q: %v", phase, stmt, err)
	}
	var ref [][]any
	for i := len(allRules) - 1; i >= 0; i-- {
		res, err := e.Run(context.Background(), p, core.QueryOptions{Disable: allRules[i]}, nil)
		if err != nil {
			t.Fatalf("%s: %q with Disable=%04b: %v", phase, stmt, allRules[i], err)
		}
		rows := res.Rows
		slices.SortFunc(rows, func(x, y []any) int { return cmp.Compare(x[0].(int64), y[0].(int64)) })
		if ref == nil {
			ref = rows
			if ref == nil {
				ref = [][]any{}
			}
			continue
		}
		if len(rows) != len(ref) || len(rows) > 0 && !reflect.DeepEqual(rows, ref) {
			t.Errorf("%s: %q: Disable=%04b returned %d rows, the reference path (Disable=%04b) %d",
				phase, stmt, allRules[i], len(rows), allRules[len(allRules)-1], len(ref))
		}
	}
	return ref
}

// TestGeneratedPredicateDifferential is the differential described at the top
// of the file, over four states of the table: clean blocks, INSERT / UPDATE
// / DELETE deltas sitting in the PDTs (spans they touch are merged and
// re-filtered, the rest is served from blocks), after a bulk load on top of
// those deltas, and after update propagation has rewritten the blocks. The
// fixed statements are those that once returned wrong rows, each also checked
// against the count the Go-side model of the table gives.
func TestGeneratedPredicateDifferential(t *testing.T) {
	// The corners TestPushdownClassifierEdgeCases locked, on its tables, now
	// under every rule setting: equality must not weaken a strict bound at the
	// same value, a strict integer bound must not wrap at the int64 limits, a
	// date literal against a float column compares as its day number.
	t.Run("classifier_edge_cases", func(t *testing.T) {
		e := newEngine(t)
		// amount cycles 0..99 over 400 rows; region names: north/east/south/west.
		for _, c := range []struct {
			stmt string
			want int64
		}{
			{"select count(*) as n from sales where amount > 50.0 and amount = 50.0", 0},
			{"select count(*) as n from sales where amount = 50.0 and amount > 50.0", 0},
			{"select count(*) as n from regions where region_name > 'north' and region_name = 'north'", 0},
			{"select count(*) as n from sales where id > 9223372036854775807", 0},
			{"select count(*) as n from sales where amount > date '1970-01-11'", 4 * 89},
		} {
			if rows := sameUnderAllRules(t, e, "edge", c.stmt); len(rows) != 1 || rows[0][0].(int64) != c.want {
				t.Errorf("%q = %v, want %d", c.stmt, rows, c.want)
			}
		}
	})

	var model []predRow
	for k := int64(0); k < 3000; k++ {
		model = append(model, predTableRow(k))
	}
	e := newPredEngine(t, model)

	fixed := []struct {
		where string
		holds func(r predRow) bool
	}{
		// A pattern with no wildcard and no pieces matches the empty string only.
		{"s like ''", func(r predRow) bool { return r.s == "" }},
		{"s not like ''", func(r predRow) bool { return r.s != "" }},
		{"s like '%'", func(predRow) bool { return true }},
		// Literals at and beyond ±2⁶³ storage units: every decimal satisfies
		// them (but the one row holding MaxInt64, whose value the float compare
		// cannot tell from the fourth literal), where a wrapped bound had the
		// scan return none.
		{"m < 100000000000000000000.0", func(predRow) bool { return true }},
		{"m > -100000000000000000000.0", func(predRow) bool { return true }},
		{"m <= 92233720368547758.07", func(predRow) bool { return true }},
		{"m < 92233720368547760", func(r predRow) bool { return float64(r.m)*0.01 < 92233720368547760 }},
		{"m >= -92233720368547760", func(predRow) bool { return true }},
		// The classifier corners again, where deltas and verdicts can reach them.
		{"f > 50.0 and f = 50.0", func(predRow) bool { return false }},
		{"s > 'north' and s = 'north'", func(predRow) bool { return false }},
		{"b > 9223372036854775807", func(predRow) bool { return false }},
		{"b >= 9223372036854775807", func(r predRow) bool { return r.b == math.MaxInt64 }},
		{"f > date '1970-01-11'", func(r predRow) bool { return r.f > 10 }},
		{"s like 'nor%' and d >= date '1995-06-01'", func(r predRow) bool {
			return strings.HasPrefix(r.s, "nor") && r.d >= vector.MustDate("1995-06-01")
		}},
		{"a in (7, 500) and c like '%-e%'", func(r predRow) bool { return r.a == 7 && strings.Contains(r.c, "-e") }},
	}

	g := &predGen{r: rand.New(rand.NewSource(20))}
	var generated []string
	for i := 0; i < 150; i++ {
		generated = append(generated, g.where())
	}

	check := func(phase string) {
		t.Helper()
		for _, c := range fixed {
			want := 0
			for _, r := range model {
				if c.holds(r) {
					want++
				}
			}
			rows := sameUnderAllRules(t, e, phase, "select k, a, b, d, m, f, s, c from p where "+c.where)
			if len(rows) != want {
				t.Errorf("%s: where %s returned %d rows, the model says %d of %d", phase, c.where, len(rows), want, len(model))
			}
		}
		for _, where := range generated {
			sameUnderAllRules(t, e, phase, "select k, a, b, d, m, f, s, c from p where "+where)
		}
	}
	check("clean")

	// Deltas: each statement runs as SQL and on the model.
	ctx := context.Background()
	del := func(stmt string, match func(r predRow) bool) {
		t.Helper()
		if _, err := Exec(ctx, stmt, e); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		model = slices.DeleteFunc(model, match)
	}
	var ins []string
	for k := int64(3000); k < 3040; k++ {
		r := predTableRow((k*13 + 17) % 3000)
		r.k, r.c = k, fmt.Sprintf("row-%05d-new", k)
		switch k % 4 {
		case 0:
			r.s, r.d = "", vector.MustDate("1990-03-01") // before every block's range
		case 1:
			r.s, r.d = "zulu", vector.MustDate("1999-12-31") // after it, in no dictionary
		}
		model = append(model, r)
		ins = append(ins, r.sqlValues())
	}
	if _, err := Exec(ctx, "insert into p values "+strings.Join(ins, ", "), e); err != nil {
		t.Fatal(err)
	}
	update := func(stmt string, match func(r predRow) bool, set func(r *predRow)) {
		t.Helper()
		if _, err := Exec(ctx, stmt, e); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		for i := range model {
			if match(model[i]) {
				set(&model[i])
			}
		}
	}
	update("update p set m = 123.45 where k between 100 and 140",
		func(r predRow) bool { return r.k >= 100 && r.k <= 140 }, func(r *predRow) { r.m = 12345 })
	update("update p set s = '' where a = 7", func(r predRow) bool { return r.a == 7 }, func(r *predRow) { r.s = "" })
	update("update p set s = 'zulu' where k in (5, 50, 500, 2999)",
		func(r predRow) bool { return r.k == 5 || r.k == 50 || r.k == 500 || r.k == 2999 }, func(r *predRow) { r.s = "zulu" })
	update("update p set f = 50.0 where k between 2000 and 2010",
		func(r predRow) bool { return r.k >= 2000 && r.k <= 2010 }, func(r *predRow) { r.f = 50 })
	update("update p set b = 9223372036854775807 where k = 77",
		func(r predRow) bool { return r.k == 77 }, func(r *predRow) { r.b = math.MaxInt64 })
	update("update p set d = date '1990-01-01' where k between 1500 and 1510",
		func(r predRow) bool { return r.k >= 1500 && r.k <= 1510 }, func(r *predRow) { r.d = vector.MustDate("1990-01-01") })
	del("delete from p where k between 300 and 420", func(r predRow) bool { return r.k >= 300 && r.k <= 420 })
	del("delete from p where s = 'east' and a > 30", func(r predRow) bool { return r.s == "east" && r.a > 30 })
	check("deltas")

	// A bulk load on top of the pending deltas must keep them.
	b := vector.NewBatchForSchema(predSchema, 200)
	for k := int64(3040); k < 3240; k++ {
		r := predTableRow(k)
		model = append(model, r)
		b.AppendRow(r.values()...)
	}
	if err := e.Load("p", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	check("loaded")

	for part := 0; part < 4; part++ {
		if err := e.PropagatePartition(ctx, "p", part); err != nil {
			t.Fatal(err)
		}
	}
	check("propagated")
}
