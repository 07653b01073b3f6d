package sql

import (
	"slices"
	"strconv"
	"strings"

	"vectorh/internal/vector"
)

// aggFuncs are the aggregate function names the parser recognizes.
var aggFuncs = map[string]bool{
	"sum": true, "min": true, "max": true, "avg": true, "count": true,
}

// Parse parses one SELECT statement (an optional trailing ';' is allowed).
func Parse(src string) (*SelectStmt, error) {
	stmt, err := ParseStmt(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errf(Pos{1, 1}, "expected a SELECT statement")
	}
	return sel, nil
}

// ParseStmt parses one statement of any kind — SELECT, INSERT, UPDATE or
// DELETE (an optional trailing ';' is allowed).
func ParseStmt(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.peek().text == ";" {
		p.next()
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, errf(t.pos, "unexpected %q after end of statement", t.text)
	}
	return stmt, nil
}

// parseStmt dispatches on the leading keyword.
func (p *parser) parseStmt() (Stmt, error) {
	switch t := p.peek(); t.text {
	case "select":
		return p.parseSelect()
	case "insert":
		return p.parseInsert()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	default:
		return nil, errf(t.pos, "expected SELECT, INSERT, UPDATE or DELETE, found %q", t.found())
	}
}

// parseInsert parses INSERT INTO table [(col, ...)] VALUES (...), (...).
func (p *parser) parseInsert() (*InsertStmt, error) {
	p.next() // insert
	if _, err := p.expect("into"); err != nil {
		return nil, err
	}
	t, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: t.text, TablePos: t.pos}
	if p.accept("(") {
		for {
			c, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, Ident{Name: c.text, Pos: c.pos})
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect("values"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(",") {
			break
		}
	}
	return stmt, nil
}

// parseUpdate parses UPDATE table SET col = expr, ... [WHERE pred].
func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.next() // update
	t, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: t.text, TablePos: t.pos}
	if _, err := p.expect("set"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetItem{Col: c.text, ColPos: c.pos, Expr: e})
		if !p.accept(",") {
			break
		}
	}
	if p.accept("where") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// parseDelete parses DELETE FROM table [WHERE pred].
func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.next() // delete
	if _, err := p.expect("from"); err != nil {
		return nil, err
	}
	t, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: t.text, TablePos: t.pos}
	if p.accept("where") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	i      int
	params int // '?' parameters seen so far (1-based indices)
	depth  int // current expression/subquery nesting, bounded by maxParseDepth
}

// maxParseDepth bounds recursive descent so hostile input (kilobytes of
// nested parentheses) reports a positioned error instead of exhausting the
// goroutine stack.
const maxParseDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return errf(p.peek().pos, "statement nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// found is how an error names the token met in place of the expected one.
func (t token) found() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return t.text
}

func (p *parser) peek() token  { return p.toks[p.i] }
func (p *parser) peek2() token { return p.toks[min(p.i+1, len(p.toks)-1)] }
func (p *parser) next() token  { t := p.toks[p.i]; p.i++; return t }

// accept consumes the next token when it is the given keyword or symbol.
func (p *parser) accept(text string) bool {
	if t := p.peek(); (t.kind == tKeyword || t.kind == tSymbol) && t.text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) (token, error) {
	t := p.peek()
	if (t.kind == tKeyword || t.kind == tSymbol) && t.text == text {
		return p.next(), nil
	}
	return token{}, errf(t.pos, "expected %q, found %q", text, t.found())
}

func (p *parser) expectIdent(what string) (token, error) {
	t := p.peek()
	if t.kind != tIdent {
		return token{}, errf(t.pos, "expected %s, found %q", what, t.found())
	}
	return p.next(), nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if _, err := p.expect("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// Projection list.
	if p.accept("*") {
		stmt.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept("as") {
				t, err := p.expectIdent("alias")
				if err != nil {
					return nil, err
				}
				item.Alias = t.text
			} else if t := p.peek(); t.kind == tIdent {
				// bare alias: SELECT expr name
				item.Alias = p.next().text
			}
			stmt.Items = append(stmt.Items, item)
			if !p.accept(",") {
				break
			}
		}
	}

	// FROM with a chain of inner/left-outer joins.
	if _, err := p.expect("from"); err != nil {
		return nil, err
	}
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = append(stmt.From, first)
	for {
		left := false
		if t := p.peek(); t.kind == tKeyword && t.text == "left" {
			p.next()
			p.accept("outer")
			if _, err := p.expect("join"); err != nil {
				return nil, err
			}
			left = true
		} else {
			p.accept("inner")
			if !p.accept("join") {
				break
			}
		}
		f, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		f.Left = left
		if _, err := p.expect("on"); err != nil {
			return nil, err
		}
		if f.On, err = p.parseExpr(); err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, f)
	}

	if p.accept("where") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}

	if p.accept("group") {
		if _, err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			t, err := p.expectIdent("group-by column")
			if err != nil {
				return nil, err
			}
			name := t.text
			if p.accept(".") { // qualified: keep the column part only
				c, err := p.expectIdent("column")
				if err != nil {
					return nil, err
				}
				name = c.text
			}
			stmt.GroupBy = append(stmt.GroupBy, GroupItem{Name: name, Pos: t.pos})
			if !p.accept(",") {
				break
			}
		}
	}

	if p.accept("having") {
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}

	if p.accept("order") {
		if _, err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			o := OrderItem{Expr: e}
			if p.accept("desc") {
				o.Desc = true
			} else {
				p.accept("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, o)
			if !p.accept(",") {
				break
			}
		}
	}

	if p.accept("limit") {
		t := p.peek()
		if t.kind != tInt {
			return nil, errf(t.pos, "expected integer LIMIT, found %q", t.text)
		}
		p.next()
		n, _ := strconv.ParseInt(t.text, 10, 64)
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseTableRef() (FromItem, error) {
	if t := p.peek(); t.kind == tSymbol && t.text == "(" {
		// Derived table: ( SELECT ... ) [AS] alias. The alias is mandatory —
		// there is no base table name to fall back on.
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return FromItem{}, err
		}
		if _, err := p.expect(")"); err != nil {
			return FromItem{}, err
		}
		p.accept("as")
		a := p.peek()
		if a.kind != tIdent {
			return FromItem{}, errf(a.pos, "derived table requires an alias, found %q", a.found())
		}
		p.next()
		return FromItem{Alias: a.text, Sub: sub, Pos: t.pos}, nil
	}
	t, err := p.expectIdent("table name")
	if err != nil {
		return FromItem{}, err
	}
	f := FromItem{Table: t.text, Alias: t.text, Pos: t.pos}
	if p.accept("as") {
		a, err := p.expectIdent("alias")
		if err != nil {
			return FromItem{}, err
		}
		f.Alias = a.text
	} else if a := p.peek(); a.kind == tIdent {
		f.Alias = p.next().text
	}
	return f, nil
}

// Precedence climbing: OR < AND < NOT < predicate (comparison, LIKE, IN,
// BETWEEN) < additive < multiplicative < primary.

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error)  { return p.parseBinary(p.parseAnd, "or") }
func (p *parser) parseAnd() (Expr, error) { return p.parseBinary(p.parseNot, "and") }

// parseBinary parses one precedence level of left-associative binary
// operators: operand (op operand)*.
func (p *parser) parseBinary(operand func() (Expr, error), ops ...string) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if !slices.Contains(ops, t.text) || !p.accept(t.text) {
			return l, nil
		}
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.text, L: l, R: r, P: t.pos}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if t := p.peek(); t.kind == tKeyword && t.text == "not" {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		// NOT EXISTS folds into the subquery node so the planner sees one
		// canonical form.
		if ex, ok := e.(*ExistsExpr); ok {
			ex.Not = !ex.Not
			ex.P = t.pos
			return ex, nil
		}
		return &NotExpr{E: e, P: t.pos}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	switch {
	case t.kind == tSymbol && isCmp(t.text):
		p.next()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: t.text, L: l, R: r, P: t.pos}, nil
	case t.kind == tKeyword && (t.text == "like" || t.text == "in" || t.text == "between"):
		return p.parsePredicateTail(l, false)
	case t.kind == tKeyword && t.text == "not":
		nt := p.peek2()
		if nt.kind == tKeyword && (nt.text == "like" || nt.text == "in") {
			p.next() // not
			return p.parsePredicateTail(l, true)
		}
	}
	return l, nil
}

func (p *parser) parsePredicateTail(l Expr, negated bool) (Expr, error) {
	t := p.next() // like | in | between
	switch t.text {
	case "like":
		s := p.peek()
		if s.kind != tString {
			return nil, errf(s.pos, "expected string pattern after LIKE, found %q", s.text)
		}
		p.next()
		return &LikeExpr{E: l, Pattern: s.text, Not: negated, P: t.pos}, nil
	case "in":
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		if s := p.peek(); s.kind == tKeyword && s.text == "select" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return &InSubquery{E: l, Sub: sub, Not: negated, P: t.pos}, nil
		}
		in := &InExpr{E: l, Not: negated, P: t.pos}
		for {
			v := p.next()
			switch v.kind {
			case tString:
				in.Strs = append(in.Strs, v.text)
			case tInt:
				n, _ := strconv.ParseInt(v.text, 10, 64)
				in.Ints = append(in.Ints, n)
			default:
				return nil, errf(v.pos, "expected literal in IN list, found %q", v.text)
			}
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if len(in.Strs) > 0 && len(in.Ints) > 0 {
			return nil, errf(t.pos, "IN list mixes string and integer literals")
		}
		return in, nil
	default: // between
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, P: t.pos}, nil
	}
}

func isCmp(s string) bool {
	switch s {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.parseBinary(p.parseMultiplicative, "+", "-")
}

func (p *parser) parseMultiplicative() (Expr, error) {
	return p.parseBinary(p.parsePrimary, "*", "/")
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tSymbol && t.text == "(":
		p.next()
		if s := p.peek(); s.kind == tKeyword && s.text == "select" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Sub: sub, P: t.pos}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tSymbol && t.text == "-": // unary minus on numeric literals
		p.next()
		v := p.peek()
		switch v.kind {
		case tInt:
			p.next()
			n, _ := strconv.ParseInt(v.text, 10, 64)
			return &IntLit{V: -n, P: t.pos}, nil
		case tFloat:
			p.next()
			f, _ := strconv.ParseFloat(v.text, 64)
			return &FloatLit{V: -f, P: t.pos}, nil
		}
		return nil, errf(v.pos, "expected numeric literal after unary '-', found %q", v.text)
	case t.kind == tInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "bad integer %q", t.text)
		}
		return &IntLit{V: n, P: t.pos}, nil
	case t.kind == tFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad number %q", t.text)
		}
		return &FloatLit{V: f, P: t.pos}, nil
	case t.kind == tString:
		p.next()
		return &StrLit{V: t.text, P: t.pos}, nil
	case t.kind == tSymbol && t.text == "?":
		p.next()
		p.params++
		return &ParamExpr{Idx: p.params, P: t.pos}, nil
	case t.kind == tKeyword && t.text == "date":
		return p.parseDateLit()
	case t.kind == tKeyword && t.text == "case":
		return p.parseCase()
	case t.kind == tKeyword && t.text == "exists":
		return p.parseExists()
	case t.kind == tKeyword && t.text == "substring":
		return p.parseSubstring()
	case t.kind == tIdent:
		return p.parseIdentExpr()
	}
	return nil, errf(t.pos, "expected expression, found %q", t.found())
}

// parseDateLit parses DATE 'YYYY-MM-DD' [ (+|-) INTERVAL 'n' MONTH ].
func (p *parser) parseDateLit() (Expr, error) {
	t := p.next() // date
	s := p.peek()
	if s.kind != tString {
		return nil, errf(s.pos, "expected 'YYYY-MM-DD' after DATE, found %q", s.text)
	}
	p.next()
	if _, err := vector.ParseDate(s.text); err != nil {
		return nil, errf(s.pos, "bad date literal %q", s.text)
	}
	d := &DateLit{V: s.text, P: t.pos}
	// Interval arithmetic is folded into the literal at plan-build time,
	// mirroring plan.DateOffset.
	sign := 0
	if n := p.peek(); n.kind == tSymbol && (n.text == "+" || n.text == "-") {
		if nn := p.peek2(); nn.kind == tKeyword && nn.text == "interval" {
			sign = 1
			if n.text == "-" {
				sign = -1
			}
			p.next()
			p.next()
			v := p.peek()
			if v.kind != tString && v.kind != tInt {
				return nil, errf(v.pos, "expected interval count, found %q", v.text)
			}
			p.next()
			months, err := strconv.Atoi(strings.TrimSpace(v.text))
			if err != nil {
				return nil, errf(v.pos, "bad interval count %q", v.text)
			}
			if _, err := p.expect("month"); err != nil {
				return nil, err
			}
			d.Months = sign * months
		}
	}
	return d, nil
}

func (p *parser) parseCase() (Expr, error) {
	t := p.next() // case
	if _, err := p.expect("when"); err != nil {
		return nil, err
	}
	when, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var els Expr = &IntLit{V: 0, P: t.pos}
	if p.accept("else") {
		if els, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect("end"); err != nil {
		return nil, err
	}
	return &CaseExpr{When: when, Then: then, Else: els, P: t.pos}, nil
}

// parseExists parses EXISTS ( SELECT ... ).
func (p *parser) parseExists() (Expr, error) {
	t := p.next() // exists
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if s := p.peek(); !(s.kind == tKeyword && s.text == "select") {
		return nil, errf(s.pos, "expected SELECT after EXISTS (, found %q", s.found())
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return &ExistsExpr{Sub: sub, P: t.pos}, nil
}

// parseSubstring parses SUBSTRING(e FROM start FOR length) with integer
// literal bounds.
func (p *parser) parseSubstring() (Expr, error) {
	t := p.next() // substring
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("from"); err != nil {
		return nil, err
	}
	s := p.peek()
	if s.kind != tInt {
		return nil, errf(s.pos, "expected integer start in SUBSTRING, found %q", s.text)
	}
	p.next()
	start, err := strconv.ParseInt(s.text, 10, 64)
	if err != nil {
		return nil, errf(s.pos, "SUBSTRING start %s does not fit in 64 bits", s.text)
	}
	if _, err := p.expect("for"); err != nil {
		return nil, err
	}
	n := p.peek()
	if n.kind != tInt {
		return nil, errf(n.pos, "expected integer length in SUBSTRING, found %q", n.text)
	}
	p.next()
	length, err := strconv.ParseInt(n.text, 10, 64)
	if err != nil {
		return nil, errf(n.pos, "SUBSTRING length %s does not fit in 64 bits", n.text)
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return &SubstrExpr{E: e, Start: start, Length: length, P: t.pos}, nil
}

// parseIdentExpr parses a column reference (possibly qualified) or a
// function call.
func (p *parser) parseIdentExpr() (Expr, error) {
	t := p.next()
	if p.peek().text == "(" && p.peek().kind == tSymbol {
		p.next() // (
		f := &FuncCall{Name: t.text, P: t.pos}
		switch {
		case p.accept("*"):
			if f.Name != "count" {
				return nil, errf(t.pos, "%s(*) is not valid; only count(*)", f.Name)
			}
			f.Star = true
		default:
			if p.accept("distinct") {
				if f.Name != "count" {
					return nil, errf(t.pos, "DISTINCT is only supported in count(distinct)")
				}
				f.Distinct = true
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Arg = arg
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if !aggFuncs[f.Name] && f.Name != "year" {
			return nil, errf(t.pos, "unknown function %q", f.Name)
		}
		return f, nil
	}
	c := &ColRef{Name: t.text, P: t.pos}
	if p.accept(".") {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		c.Table, c.Name = t.text, col.text
	}
	return c, nil
}
