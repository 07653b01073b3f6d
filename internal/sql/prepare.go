package sql

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Prepared is a parameterized statement template: a lexed statement whose '?'
// tokens are bound per execution. Binding is textual — each parameter value
// is rendered as a SQL literal and spliced into the token stream — so a bound
// statement is ordinary SQL and flows through the normal compile path. The
// rendered text is already in normalized token form, which means every
// execution of the same template with the same parameter values maps to the
// same plan-cache key, and executions with different values share the cache's
// normalization work.
//
// A Prepared is immutable after Prepare and safe for concurrent Bind calls.
type Prepared struct {
	src       string
	toks      []token // without the tEOF sentinel
	paramIdx  []int   // positions in toks that are '?' parameters
	numParams int
	isSelect  bool
}

// Prepare lexes and validates a statement template. Parameter markers ('?')
// may appear anywhere a literal may: comparisons, BETWEEN bounds, LIKE
// patterns, IN lists, DATE literals, INSERT values. Templates without
// parameters in literal-only positions are additionally parsed, so plain
// syntax errors surface at prepare time rather than first execution.
func Prepare(src string) (*Prepared, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	if toks[len(toks)-1].kind == tEOF {
		toks = toks[:len(toks)-1]
	}
	for len(toks) > 0 && toks[len(toks)-1].kind == tSymbol && toks[len(toks)-1].text == ";" {
		toks = toks[:len(toks)-1]
	}
	if len(toks) == 0 {
		return nil, errf(Pos{1, 1}, "empty statement")
	}
	head := toks[0]
	isSelect := head.kind == tKeyword && head.text == "select"
	isDML := head.kind == tKeyword &&
		(head.text == "insert" || head.text == "update" || head.text == "delete")
	if !isSelect && !isDML {
		return nil, errf(head.pos, "expected SELECT, INSERT, UPDATE or DELETE, found %q", head.text)
	}
	p := &Prepared{src: src, toks: toks, isSelect: isSelect}
	depth := 0
	for i, t := range toks {
		if t.kind != tSymbol {
			continue
		}
		switch t.text {
		case "(":
			depth++
		case ")":
			depth--
			if depth < 0 {
				return nil, errf(t.pos, "unbalanced ')'")
			}
		case "?":
			p.paramIdx = append(p.paramIdx, i)
		}
	}
	if depth != 0 {
		return nil, errf(toks[0].pos, "unbalanced '('")
	}
	p.numParams = len(p.paramIdx)
	// Full parse for templates whose parameters all sit in expression
	// positions (the parser accepts '?' there). Templates using '?' in
	// literal-only positions — DATE ?, LIKE ?, IN (?) — fail this parse by
	// construction; their syntax is checked at first execution instead.
	if _, err := ParseStmt(src); err != nil && p.numParams == 0 {
		return nil, err
	}
	return p, nil
}

// NumParams returns the number of '?' markers in the template.
func (p *Prepared) NumParams() int { return p.numParams }

// IsSelect reports whether the template is a SELECT (vs DML).
func (p *Prepared) IsSelect() bool { return p.isSelect }

// Bind renders the template with the given parameter values spliced in as
// literals, returning normalized single-statement SQL text. Accepted value
// types: integers, float64, json.Number and string (booleans and NULL have
// no literal form in this dialect).
func (p *Prepared) Bind(params []any) (string, error) {
	if len(params) != p.numParams {
		//lint:errpos bind-time error: parameters are client values, there is no source position to point at
		return "", fmt.Errorf("statement wants %d parameters, got %d", p.numParams, len(params))
	}
	var sb strings.Builder
	sb.Grow(len(p.src) + 16*len(params))
	next := 0
	for i, t := range p.toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if next < len(p.paramIdx) && i == p.paramIdx[next] {
			if err := writeParam(&sb, params[next]); err != nil {
				return "", fmt.Errorf("parameter %d: %w", next+1, err)
			}
			next++
			continue
		}
		writeToken(&sb, t)
	}
	return sb.String(), nil
}

// writeParam renders one bound value as a SQL literal.
func writeParam(sb *strings.Builder, v any) error {
	switch x := v.(type) {
	case string:
		sb.WriteByte('\'')
		sb.WriteString(strings.ReplaceAll(x, "'", "''"))
		sb.WriteByte('\'')
	case int:
		sb.WriteString(strconv.FormatInt(int64(x), 10))
	case int32:
		sb.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		sb.WriteString(strconv.FormatInt(x, 10))
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			//lint:errpos bind-time error: parameters are client values, there is no source position to point at
			return fmt.Errorf("parameter %v has no literal form", x)
		}
		// 'f' keeps the literal in plain decimal form — the lexer has no
		// exponent notation. A value past the int64 range is integral and
		// keeps a fraction digit, or it would lex as an overflowing integer.
		sb.WriteString(strconv.FormatFloat(x, 'f', -1, 64))
		if math.Abs(x) >= 1<<63 {
			sb.WriteString(".0")
		}
	case json.Number:
		// A number off the wire renders exactly like the int64 or float64 it
		// denotes: its text may be in exponent form, which spliced verbatim
		// would lex as a number followed by an identifier.
		s := x.String()
		if !strings.ContainsAny(s, ".eE") {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				//lint:errpos bind-time error: parameters are client values, there is no source position to point at
				return fmt.Errorf("number %q is not an int64", s)
			}
			return writeParam(sb, n)
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			//lint:errpos bind-time error: parameters are client values, there is no source position to point at
			return fmt.Errorf("number %q is not a float64", s)
		}
		return writeParam(sb, f)
	default:
		//lint:errpos bind-time error: parameters are client values, there is no source position to point at
		return fmt.Errorf("unsupported parameter type %T", v)
	}
	return nil
}
