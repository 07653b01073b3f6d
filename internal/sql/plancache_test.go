package sql

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeSQL(t *testing.T) {
	a, ok := NormalizeSQL("SELECT  id ,amount\n\tFROM sales WHERE region_name='no''rth';")
	if !ok {
		t.Fatal("formatted SELECT should be cacheable")
	}
	b, ok := NormalizeSQL("select id, amount from sales where region_name = 'no''rth'")
	if !ok || a != b {
		t.Fatalf("normalization differs:\n  %q\n  %q", a, b)
	}
	if strings.Contains(a, ";") || strings.Contains(a, "\n") {
		t.Fatalf("normalized text keeps separators: %q", a)
	}
	if _, ok := NormalizeSQL("update sales set amount = 0"); ok {
		t.Fatal("non-SELECT must not be cacheable")
	}
	if _, ok := NormalizeSQL("select 'unterminated"); ok {
		t.Fatal("unlexable text must not be cacheable")
	}
}

func TestPlanCacheCountersAndEviction(t *testing.T) {
	e := newEngine(t)
	c := NewPlanCache(2)
	epoch := e.CatalogEpoch()

	q1 := "select count(*) from sales"
	if _, _, cached, err := c.Compile(q1, e, epoch); err != nil || cached {
		t.Fatalf("first compile: cached=%v err=%v", cached, err)
	}
	// Formatting-equivalent text must hit the same entry.
	if _, _, cached, err := c.Compile("SELECT COUNT( * )\nFROM sales", e, epoch); err != nil || !cached {
		t.Fatalf("reformatted compile: cached=%v err=%v", cached, err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after hit: %+v", s)
	}

	// Two more distinct statements overflow cap=2 and evict the LRU entry.
	if _, _, _, err := c.Compile("select count(*) from regions", e, epoch); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Compile("select max(id) from sales", e, epoch); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after overflow: %+v", s)
	}

	// A new catalog epoch flushes everything on first contact.
	if _, _, cached, err := c.Compile(q1, e, epoch+1); err != nil || cached {
		t.Fatalf("post-epoch compile: cached=%v err=%v", cached, err)
	}
	if s := c.Stats(); s.Invalidations != 2 || s.Entries != 1 {
		t.Fatalf("after epoch flush: %+v", s)
	}

	// Statements that fail to compile never land in the cache.
	if _, _, _, err := c.Compile("select nosuch from sales", e, epoch+1); err == nil {
		t.Fatal("expected unknown-column error")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("failed compile stored an entry: %+v", s)
	}
}

func TestPreparedBindSplicing(t *testing.T) {
	e := newEngine(t)
	cases := []struct {
		tmpl    string
		params  []any
		literal string
	}{
		{"select id from sales where amount >= ? and region_id = ? order by id limit 3",
			[]any{98.0, int64(2)},
			"select id from sales where amount >= 98 and region_id = 2 order by id limit 3"},
		{"select count(*) from sales where sold >= date ? and sold < date ?",
			[]any{"2020-01-15", "2020-02-01"},
			"select count(*) from sales where sold >= date '2020-01-15' and sold < date '2020-02-01'"},
		{"select rid from regions where region_name like ? order by rid",
			[]any{"%th"},
			"select rid from regions where region_name like '%th' order by rid"},
		{"select count(*) from sales where region_id in (?, ?)",
			[]any{1, int32(2)},
			"select count(*) from sales where region_id in (1, 2)"},
	}
	for _, tc := range cases {
		p, err := Prepare(tc.tmpl)
		if err != nil {
			t.Fatalf("prepare %q: %v", tc.tmpl, err)
		}
		if p.NumParams() != len(tc.params) || !p.IsSelect() {
			t.Fatalf("%q: numParams=%d isSelect=%v", tc.tmpl, p.NumParams(), p.IsSelect())
		}
		bound, err := p.Bind(tc.params)
		if err != nil {
			t.Fatalf("bind %q: %v", tc.tmpl, err)
		}
		if !reflect.DeepEqual(runSQL(t, e, bound), runSQL(t, e, tc.literal)) {
			t.Fatalf("%q: bound result differs from literal", tc.tmpl)
		}
		// Bound text is already normalized: re-normalizing is a no-op, so
		// repeated executes map onto one plan-cache key.
		if norm, ok := NormalizeSQL(bound); !ok || norm != bound {
			t.Fatalf("bound text not normalized: %q vs %q", bound, norm)
		}
	}
}

func TestPreparedBindRendering(t *testing.T) {
	p, err := Prepare("select count(*) from sales where amount < ? and region_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	// Large floats must render in plain decimal — the lexer has no exponent
	// notation.
	bound, err := p.Bind([]any{2000000.0, int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bound, "2000000") || strings.Contains(bound, "e+") {
		t.Fatalf("float rendering: %q", bound)
	}
	// Strings with quotes are escaped.
	sp, err := Prepare("select rid from regions where region_name = ?")
	if err != nil {
		t.Fatal(err)
	}
	bound, err = sp.Bind([]any{"o'brien"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bound, "'o''brien'") {
		t.Fatalf("quote escaping: %q", bound)
	}

	if _, err := p.Bind([]any{1.0}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := p.Bind([]any{1.0, true}); err == nil {
		t.Fatal("unsupported param type must error")
	}
}

// TestBindJSONNumber: a number decoded off the wire binds to exactly the text
// the int64 or float64 it denotes binds to. Exponent forms used to be spliced
// verbatim, which the lexer reads as a number followed by an identifier:
// "1E5" in a select list became `1 as e5`.
func TestBindJSONNumber(t *testing.T) {
	p, err := Prepare("select ? from regions")
	if err != nil {
		t.Fatal(err)
	}
	bind := func(v any) (string, error) { return p.Bind([]any{v}) }
	for _, tc := range []struct {
		num  json.Number
		same any
	}{
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"9223372036854775807", int64(math.MaxInt64)},
		{"2.5", 2.5},
		{"1e-7", 1e-7},
		{"1E5", 1e5},
		{"1e+21", 1e21},
		{"-3.25E-2", -0.0325},
	} {
		got, err := bind(tc.num)
		if err != nil {
			t.Errorf("%s: %v", tc.num, err)
			continue
		}
		want, err := bind(tc.same)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(got, "select "), " from regions")
		if got != want || strings.ContainsAny(lit, "eE") {
			t.Errorf("%s binds to %q, want %q", tc.num, got, want)
		}
	}
	for _, bad := range []any{json.Number("9223372036854775808"), json.Number("1e400"),
		json.Number("0x10"), json.Number("NaN"), math.Inf(1), math.NaN()} {
		if got, err := bind(bad); err == nil {
			t.Errorf("%v binds to %q, want an error", bad, got)
		}
	}
}

func TestPrepareValidation(t *testing.T) {
	// Param-free templates get a full parse at prepare time.
	if _, err := Prepare("select from where"); err == nil {
		t.Fatal("syntax error must surface at prepare time")
	}
	if _, err := Prepare("select (1 from sales"); err == nil {
		t.Fatal("unbalanced '(' must surface at prepare time")
	}
	if _, err := Prepare("create table t (x int)"); err == nil {
		t.Fatal("non-SELECT/DML head must be rejected")
	}
	// DML templates prepare fine.
	p, err := Prepare("delete from regions where rid = ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.IsSelect() || p.NumParams() != 1 {
		t.Fatalf("DML template: isSelect=%v numParams=%d", p.IsSelect(), p.NumParams())
	}
}

func TestCompileRejectsUnboundParam(t *testing.T) {
	e := newEngine(t)
	_, err := Compile("select id from sales where id = ?", e)
	if err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("want unbound-parameter error, got %v", err)
	}
}
