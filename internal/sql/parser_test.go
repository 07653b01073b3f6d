package sql

import (
	"strings"
	"testing"
)

// TestParseGolden locks the parse of representative statements via the
// canonical AST rendering.
func TestParseGolden(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"SELECT a, b AS x FROM t WHERE a > 10 AND b LIKE 'x%' ORDER BY a DESC LIMIT 5",
			"select a, b as x from t where ((a > 10) and (b like 'x%')) order by a desc limit 5",
		},
		{
			"select t.a, sum(b) total from t join u on t.id = u.id group by a order by total desc",
			"select t.a, sum(b) as total from t join u on (t.id = u.id) group by a order by total desc",
		},
		{
			"select case when a in (1, 2) then 1 else 0 end from t",
			"select case when (a in (1, 2)) then 1 else 0 end from t",
		},
		{
			"select * from t where d >= date '1994-01-01' + interval '3' month;",
			"select * from t where (d >= date '1994-01-01' + interval '3' month)",
		},
		{
			"select count(*) from t where not a = 1 or b between 1 and 2",
			"select count(*) from t where ((not (a = 1)) or (b between 1 and 2))",
		},
		{
			"select count(distinct a), avg(b / 2.5) from t tt where tt.s <> 'don''t'",
			"select count(distinct a), avg((b / 2.5)) from t tt where (tt.s <> 'don''t')",
		},
		{
			"select a from t where x = -3 and y not like '%z%' and w not in (4, 5)",
			"select a from t where (((x = -3) and (y not like '%z%')) and (w not in (4, 5)))",
		},
		{
			"select a + b * c - d from t -- trailing comment\n order by 2 asc",
			"select ((a + (b * c)) - d) from t order by 2",
		},
		{
			"select a from t where exists (select * from u where u.id = t.id)",
			"select a from t where (exists (select * from u where (u.id = t.id)))",
		},
		{
			"select a from t where a not in (select id from u) and not exists (select * from u)",
			"select a from t where ((a not in (select id from u)) and (not exists (select * from u)))",
		},
		{
			"select s, sum(a) from t group by s having sum(a) > (select avg(a) from t)",
			"select s, sum(a) from t group by s having (sum(a) > (select avg(a) from t))",
		},
		{
			"select x from (select a as x from t) d left outer join u on x = u.id",
			"select x from (select a as x from t) d left join u on (x = u.id)",
		},
		{
			"select substring(s from 1 for 2) as code from t where substring(s from 3 for 1) = 'x'",
			"select substring(s from 1 for 2) as code from t where (substring(s from 3 for 1) = 'x')",
		},
		{
			"select x from (select a as x from t) as d join u as v on x = v.id",
			"select x from (select a as x from t) d join u v on (x = v.id)",
		},
	}
	for _, c := range cases {
		stmt, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := stmt.String(); got != c.want {
			t.Errorf("Parse(%q)\n got  %s\n want %s", c.in, got, c.want)
		}
	}
}

// TestParseErrors locks error messages and their 1-based line:col positions.
func TestParseErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"select", `1:7: expected expression, found "end of input"`},
		{"select a", `1:9: expected "from", found "end of input"`},
		{"select a from t where", `1:22: expected expression, found "end of input"`},
		{"select a from t limit b", `1:23: expected integer LIMIT, found "b"`},
		{"select sum(a from t", `1:14: expected ")", found "from"`},
		{"select a from t where b = 'x", `1:27: unterminated string literal`},
		{"select a # from t", `1:10: unexpected character "#"`},
		{"select nosuchfunc(a) from t", `1:8: unknown function "nosuchfunc"`},
		{"select sum(*) from t", `1:8: sum(*) is not valid; only count(*)`},
		{"select a from t where d >= date 'May 1994'", `1:33: bad date literal "May 1994"`},
		{"select a from t group by", `1:25: expected group-by column, found "end of input"`},
		{"select a from t join u", `1:23: expected "on", found "end of input"`},
		{"select a from t; select b from t", `1:18: unexpected "select" after end of statement`},
		{"select a from t\nwhere b =", `2:10: expected expression, found "end of input"`},
		{"select a from t where exists (a > 1)", `1:31: expected SELECT after EXISTS (, found "a"`},
		{"select substring(s from x for 2) from t", `1:25: expected integer start in SUBSTRING, found "x"`},
		{"select substring(s from 1, 2) from t", `1:26: expected "for", found ","`},
		{"select substring(s from 2 for 92233720368547758070) from t",
			`1:31: SUBSTRING length 92233720368547758070 does not fit in 64 bits`},
		{"select substring(s from 92233720368547758070 for 2) from t",
			`1:25: SUBSTRING start 92233720368547758070 does not fit in 64 bits`},
		{"select a from (select a from t)", `1:32: derived table requires an alias, found "end of input"`},
		{"select a from (select a from t) as", `1:35: derived table requires an alias, found "end of input"`},
		{"select a from t as where a = 1", `1:20: expected alias, found "where"`},
		{"select a from t where a in (select)", `1:35: expected expression, found ")"`},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): expected error %q, got none", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q)\n got  %v\n want substring %q", c.in, err, c.want)
		}
	}
}

// TestLexPositions checks multi-line position tracking.
func TestLexPositions(t *testing.T) {
	toks, err := lex("select a\n  from t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].text != "from" || toks[2].pos != (Pos{2, 3}) {
		t.Fatalf("from token at %v, want 2:3", toks[2].pos)
	}
}
