package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Parse parses a SPARQL query string.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: rdf.NewPrefixMap()}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses src and panics on error; for fixed queries in tests and
// generators.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks     []token
	pos      int
	prefixes *rdf.PrefixMap
	bnodeSeq int
	depth    int // current nesting of groups, unary/bracketed expressions, [ ] nodes
}

// maxNesting bounds how deep group patterns, bracketed or unary
// expressions and anonymous blank nodes may nest. The parser and both
// evaluators recurse on that structure, so without a bound a large
// enough query text — it arrives from the network — overflows the
// goroutine stack, which no recover can catch.
const maxNesting = 512

// enter counts one level of nesting; pair it with a deferred leave.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) punct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) keyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == kw
}

func (p *parser) query() (*Query, error) {
	q := &Query{Prefixes: p.prefixes, Limit: -1}
	// prologue
	for {
		if p.keyword("PREFIX") {
			if p.cur().kind != tokPName {
				return nil, p.errf("expected prefixed name after PREFIX")
			}
			pname := p.next().text
			i := strings.IndexByte(pname, ':')
			prefix := pname[:i]
			if p.cur().kind != tokIRI {
				return nil, p.errf("expected IRI after PREFIX %s:", prefix)
			}
			p.prefixes.Bind(prefix, p.next().text)
			continue
		}
		if p.keyword("BASE") {
			if p.cur().kind != tokIRI {
				return nil, p.errf("expected IRI after BASE")
			}
			p.next()
			continue
		}
		break
	}

	switch {
	case p.keyword("SELECT"):
		q.Form = FormSelect
		if p.keyword("DISTINCT") {
			q.Distinct = true
		} else if p.keyword("REDUCED") {
			q.Reduced = true
		}
		if p.punct("*") {
			q.Star = true
		} else {
			for {
				if p.cur().kind == tokVar {
					q.Select = append(q.Select, SelectItem{Var: p.next().text})
					continue
				}
				if p.cur().kind == tokPunct && p.cur().text == "(" {
					p.pos++
					e, err := p.expression()
					if err != nil {
						return nil, err
					}
					if !p.keyword("AS") {
						return nil, p.errf("expected AS in projection expression")
					}
					if p.cur().kind != tokVar {
						return nil, p.errf("expected variable after AS")
					}
					v := p.next().text
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					q.Select = append(q.Select, SelectItem{Var: v, Expr: e})
					continue
				}
				break
			}
			if len(q.Select) == 0 {
				return nil, p.errf("empty SELECT clause")
			}
		}
	case p.keyword("ASK"):
		q.Form = FormAsk
	case p.keyword("CONSTRUCT"):
		q.Form = FormConstruct
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		tmpl := &BGP{}
		for !p.punct("}") {
			if p.cur().kind == tokEOF {
				return nil, p.errf("unterminated CONSTRUCT template")
			}
			if err := p.triplesSameSubject(tmpl); err != nil {
				return nil, err
			}
			p.punct(".")
		}
		if len(tmpl.Patterns) == 0 {
			return nil, p.errf("empty CONSTRUCT template")
		}
		q.Template = tmpl.Patterns
	default:
		return nil, p.errf("expected SELECT or ASK, found %s", p.cur())
	}

	// WHERE is optional before the group
	p.keyword("WHERE")
	g, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = g

	// solution modifiers
	if p.keyword("GROUP") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after GROUP")
		}
		for {
			if p.cur().kind == tokVar {
				q.GroupBy = append(q.GroupBy, &ExprVar{Name: p.next().text})
				continue
			}
			if p.cur().kind == tokPunct && p.cur().text == "(" {
				p.pos++
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.GroupBy = append(q.GroupBy, e)
				continue
			}
			break
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("empty GROUP BY")
		}
	}
	if p.keyword("HAVING") {
		for p.cur().kind == tokPunct && p.cur().text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			q.Having = append(q.Having, e)
		}
		if len(q.Having) == 0 {
			return nil, p.errf("empty HAVING")
		}
	}
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		for {
			switch {
			case p.keyword("ASC"):
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderCond{Expr: e})
			case p.keyword("DESC"):
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderCond{Expr: e, Desc: true})
			case p.cur().kind == tokVar:
				q.OrderBy = append(q.OrderBy, OrderCond{Expr: &ExprVar{Name: p.next().text}})
			default:
				if len(q.OrderBy) == 0 {
					return nil, p.errf("empty ORDER BY")
				}
				goto done
			}
		}
	done:
	}
	// LIMIT and OFFSET in either order
	for {
		if p.keyword("LIMIT") {
			n, err := p.integer()
			if err != nil {
				return nil, err
			}
			q.Limit = n
			continue
		}
		if p.keyword("OFFSET") {
			n, err := p.integer()
			if err != nil {
				return nil, err
			}
			q.Offset = n
			continue
		}
		break
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	// two grouped shapes that would otherwise be answered silently wrong:
	// a group has no column for SELECT * to name, and an ORDER BY key is
	// evaluated on a finished row, where an aggregate has nothing to fold
	if q.Star && q.NeedsGrouping() {
		return nil, p.errf("SELECT * is not legal with GROUP BY")
	}
	for _, c := range q.OrderBy {
		if HasAggregate(c.Expr) {
			return nil, p.errf("aggregate in ORDER BY: project it AS ?v and order by ?v")
		}
	}
	return q, nil
}

func (p *parser) integer() (int, error) {
	if p.cur().kind != tokNumber {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(p.next().text)
	if err != nil || n < 0 {
		return 0, p.errf("bad integer")
	}
	return n, nil
}

func (p *parser) groupGraphPattern() (*GroupPattern, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	var bgp *BGP
	flushBGP := func() {
		if bgp != nil && len(bgp.Patterns) > 0 {
			g.Elems = append(g.Elems, bgp)
		}
		bgp = nil
	}
	for {
		switch {
		case p.punct("}"):
			flushBGP()
			return g, nil
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated group pattern")
		case p.keyword("FILTER"):
			e, err := p.filterConstraint()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
			p.punct(".")
		case p.keyword("OPTIONAL"):
			inner, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			flushBGP()
			g.Elems = append(g.Elems, &OptionalPattern{Inner: inner})
			p.punct(".")
		case p.keyword("MINUS"):
			inner, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			flushBGP()
			g.Elems = append(g.Elems, &MinusPattern{Inner: inner})
			p.punct(".")
		case p.keyword("BIND"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if !p.keyword("AS") {
				return nil, p.errf("expected AS in BIND")
			}
			if p.cur().kind != tokVar {
				return nil, p.errf("expected variable in BIND")
			}
			v := p.next().text
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			flushBGP()
			g.Elems = append(g.Elems, &BindPattern{Expr: e, Var: v})
			p.punct(".")
		case p.keyword("VALUES"):
			vp, err := p.valuesBlock()
			if err != nil {
				return nil, err
			}
			flushBGP()
			g.Elems = append(g.Elems, vp)
			p.punct(".")
		case p.cur().kind == tokPunct && p.cur().text == "{":
			// sub-group, possibly a UNION chain
			left, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			flushBGP()
			node := GraphPattern(left)
			for p.keyword("UNION") {
				right, err := p.groupGraphPattern()
				if err != nil {
					return nil, err
				}
				lg, ok := node.(*GroupPattern)
				if !ok {
					lg = &GroupPattern{Elems: []GraphPattern{node}}
				}
				node = &UnionPattern{Left: lg, Right: right}
			}
			g.Elems = append(g.Elems, node)
			p.punct(".")
		default:
			// triples block
			if bgp == nil {
				bgp = &BGP{}
			}
			if err := p.triplesSameSubject(bgp); err != nil {
				return nil, err
			}
			// The '.' separator is optional before '}' and before the
			// non-triple constructs (FILTER, OPTIONAL, BIND, ...).
			p.punct(".")
		}
	}
}

func (p *parser) filterConstraint() (Expression, error) {
	// FILTER ( expr ) or FILTER builtinCall(...)
	if p.cur().kind == tokPunct && p.cur().text == "(" {
		p.pos++
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.cur().kind == tokKeyword {
		return p.primaryExpression()
	}
	return nil, p.errf("expected constraint after FILTER")
}

func (p *parser) valuesBlock() (*ValuesPattern, error) {
	vp := &ValuesPattern{}
	if p.cur().kind == tokVar {
		// single-var form: VALUES ?x { v1 v2 }
		vp.Vars = []string{p.next().text}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		for !p.punct("}") {
			if p.cur().kind == tokEOF {
				return nil, p.errf("unterminated VALUES block")
			}
			t, err := p.dataTerm()
			if err != nil {
				return nil, err
			}
			vp.Rows = append(vp.Rows, []rdf.Term{t})
		}
		return vp, nil
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for p.cur().kind == tokVar {
		vp.Vars = append(vp.Vars, p.next().text)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.punct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated VALUES block")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		row := make([]rdf.Term, 0, len(vp.Vars))
		for !p.punct(")") {
			if p.keyword("UNDEF") {
				row = append(row, rdf.Term{})
				continue
			}
			t, err := p.dataTerm()
			if err != nil {
				return nil, err
			}
			row = append(row, t)
		}
		if len(row) != len(vp.Vars) {
			return nil, p.errf("VALUES row has %d terms, want %d", len(row), len(vp.Vars))
		}
		vp.Rows = append(vp.Rows, row)
	}
	return vp, nil
}

// dataTerm parses a constant term in a VALUES block.
func (p *parser) dataTerm() (rdf.Term, error) {
	n, err := p.nodePattern(false)
	if err != nil {
		return rdf.Term{}, err
	}
	if n.IsVar() {
		return rdf.Term{}, p.errf("variable not allowed in VALUES data")
	}
	return n.Term, nil
}

func (p *parser) triplesSameSubject(bgp *BGP) error {
	s, err := p.nodePattern(true)
	if err != nil {
		return err
	}
	return p.propertyList(bgp, s)
}

func (p *parser) propertyList(bgp *BGP, s NodePattern) error {
	for {
		pred, err := p.verb()
		if err != nil {
			return err
		}
		for {
			o, err := p.objectNode(bgp)
			if err != nil {
				return err
			}
			bgp.Patterns = append(bgp.Patterns, TriplePattern{S: s, P: pred, O: o})
			if p.punct(",") {
				continue
			}
			break
		}
		if p.punct(";") {
			// trailing ';'
			if c := p.cur(); c.kind == tokPunct && (c.text == "." || c.text == "}" || c.text == "]") {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *parser) verb() (NodePattern, error) {
	if p.cur().kind == tokA {
		p.pos++
		return NodePattern{Term: rdf.NewIRI(rdf.RDFType)}, nil
	}
	return p.nodePattern(true)
}

// objectNode parses an object, which may be an anonymous blank node with a
// nested property list.
func (p *parser) objectNode(bgp *BGP) (NodePattern, error) {
	if p.cur().kind == tokPunct && p.cur().text == "[" {
		if err := p.enter(); err != nil {
			return NodePattern{}, err
		}
		defer p.leave()
		p.pos++
		p.bnodeSeq++
		b := NodePattern{Term: rdf.NewBlank(fmt.Sprintf("q%d", p.bnodeSeq))}
		if p.punct("]") {
			return b, nil
		}
		if err := p.propertyList(bgp, b); err != nil {
			return NodePattern{}, err
		}
		if err := p.expectPunct("]"); err != nil {
			return NodePattern{}, err
		}
		return b, nil
	}
	return p.nodePattern(true)
}

// nodePattern parses a term or variable. allowVar controls whether
// variables are accepted.
func (p *parser) nodePattern(allowVar bool) (NodePattern, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		if !allowVar {
			return NodePattern{}, p.errf("variable not allowed here")
		}
		p.pos++
		return NodePattern{Var: t.text}, nil
	case tokIRI:
		p.pos++
		return NodePattern{Term: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.pos++
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return NodePattern{}, p.errf("%v", err)
		}
		return NodePattern{Term: rdf.NewIRI(iri)}, nil
	case tokBlank:
		p.pos++
		return NodePattern{Term: rdf.NewBlank(t.text)}, nil
	case tokString:
		p.pos++
		return NodePattern{Term: p.literalSuffix(t.text)}, nil
	case tokNumber:
		p.pos++
		return NodePattern{Term: numberTerm(t)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return NodePattern{Term: rdf.NewBoolean(true)}, nil
		case "FALSE":
			p.pos++
			return NodePattern{Term: rdf.NewBoolean(false)}, nil
		}
	case tokPunct:
		if t.text == "-" || t.text == "+" {
			neg := t.text == "-"
			if p.toks[p.pos+1].kind == tokNumber {
				p.pos++
				nt := p.next()
				term := numberTerm(nt)
				if neg {
					term.Value = "-" + term.Value
				}
				return NodePattern{Term: term}, nil
			}
		}
	}
	return NodePattern{}, p.errf("expected term or variable, found %s", t)
}

// literalSuffix applies an optional @lang or ^^datatype suffix to a lexed
// string.
func (p *parser) literalSuffix(lex string) rdf.Term {
	t := p.cur()
	if t.kind == tokPunct && strings.HasPrefix(t.text, "@") && len(t.text) > 1 {
		p.pos++
		return rdf.NewLangLiteral(lex, t.text[1:])
	}
	if t.kind == tokPunct && t.text == "^^" {
		p.pos++
		dt := p.cur()
		switch dt.kind {
		case tokIRI:
			p.pos++
			return rdf.NewTypedLiteral(lex, dt.text)
		case tokPName:
			p.pos++
			if iri, err := p.prefixes.Expand(dt.text); err == nil {
				return rdf.NewTypedLiteral(lex, iri)
			}
		}
	}
	return rdf.NewLiteral(lex)
}

func numberTerm(t token) rdf.Term {
	switch t.numKind {
	case "decimal":
		return rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)
	case "double":
		return rdf.NewTypedLiteral(t.text, rdf.XSDDouble)
	default:
		return rdf.NewTypedLiteral(t.text, rdf.XSDInteger)
	}
}

// --- expressions (precedence climbing) ---

func (p *parser) expression() (Expression, error) { return p.orExpression() }

func (p *parser) orExpression() (Expression, error) {
	l, err := p.andExpression()
	if err != nil {
		return nil, err
	}
	for p.punct("||") {
		r, err := p.andExpression()
		if err != nil {
			return nil, err
		}
		l = &ExprBinary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpression() (Expression, error) {
	l, err := p.relExpression()
	if err != nil {
		return nil, err
	}
	for p.punct("&&") {
		r, err := p.relExpression()
		if err != nil {
			return nil, err
		}
		l = &ExprBinary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) relExpression() (Expression, error) {
	l, err := p.addExpression()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.cur().kind == tokPunct && p.cur().text == op {
			p.pos++
			r, err := p.addExpression()
			if err != nil {
				return nil, err
			}
			return &ExprBinary{Op: op, L: l, R: r}, nil
		}
	}
	// IN / NOT IN
	if p.peekKeyword("IN") || (p.peekKeyword("NOT") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN") {
		negate := p.keyword("NOT")
		p.keyword("IN")
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []Expression
		for {
			if p.punct(")") {
				break
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.punct(",") {
				continue
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			break
		}
		var node Expression
		for _, e := range list {
			eq := &ExprBinary{Op: "=", L: l, R: e}
			if node == nil {
				node = Expression(eq)
			} else {
				node = &ExprBinary{Op: "||", L: node, R: eq}
			}
		}
		if node == nil {
			node = &ExprTerm{Term: rdf.NewBoolean(false)}
		}
		if negate {
			node = &ExprUnary{Op: "!", X: node}
		}
		return node, nil
	}
	return l, nil
}

func (p *parser) addExpression() (Expression, error) {
	l, err := p.mulExpression()
	if err != nil {
		return nil, err
	}
	for {
		if p.punct("+") {
			r, err := p.mulExpression()
			if err != nil {
				return nil, err
			}
			l = &ExprBinary{Op: "+", L: l, R: r}
			continue
		}
		if p.punct("-") {
			r, err := p.mulExpression()
			if err != nil {
				return nil, err
			}
			l = &ExprBinary{Op: "-", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpression() (Expression, error) {
	l, err := p.unaryExpression()
	if err != nil {
		return nil, err
	}
	for {
		if p.punct("*") {
			r, err := p.unaryExpression()
			if err != nil {
				return nil, err
			}
			l = &ExprBinary{Op: "*", L: l, R: r}
			continue
		}
		if p.punct("/") {
			r, err := p.unaryExpression()
			if err != nil {
				return nil, err
			}
			l = &ExprBinary{Op: "/", L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) unaryExpression() (Expression, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.punct("!") {
		x, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		return &ExprUnary{Op: "!", X: x}, nil
	}
	if p.punct("-") {
		x, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		return &ExprUnary{Op: "-", X: x}, nil
	}
	if p.punct("+") {
		return p.unaryExpression()
	}
	return p.primaryExpression()
}

var aggregateFns = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"SAMPLE": true, "GROUP_CONCAT": true,
}

func (p *parser) primaryExpression() (Expression, error) {
	t := p.cur()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokVar:
		p.pos++
		return &ExprVar{Name: t.text}, nil
	case tokIRI:
		p.pos++
		return &ExprTerm{Term: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.pos++
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &ExprTerm{Term: rdf.NewIRI(iri)}, nil
	case tokString:
		p.pos++
		return &ExprTerm{Term: p.literalSuffix(t.text)}, nil
	case tokNumber:
		p.pos++
		return &ExprTerm{Term: numberTerm(t)}, nil
	case tokKeyword:
		switch {
		case t.text == "TRUE":
			p.pos++
			return &ExprTerm{Term: rdf.NewBoolean(true)}, nil
		case t.text == "FALSE":
			p.pos++
			return &ExprTerm{Term: rdf.NewBoolean(false)}, nil
		case aggregateFns[t.text]:
			return p.aggregate()
		default:
			return p.builtinCall()
		}
	}
	return nil, p.errf("expected expression, found %s", t)
}

func (p *parser) aggregate() (Expression, error) {
	fn := p.next().text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := &ExprAggregate{Fn: fn, Separator: " "}
	if p.keyword("DISTINCT") {
		agg.Distinct = true
	}
	if fn == "COUNT" && p.punct("*") {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return agg, nil
	}
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	agg.Arg = e
	if fn == "GROUP_CONCAT" && p.punct(";") {
		if !p.keyword("SEPARATOR") {
			return nil, p.errf("expected SEPARATOR in GROUP_CONCAT")
		}
		if !p.punct("=") {
			return nil, p.errf("expected '=' after SEPARATOR")
		}
		if p.cur().kind != tokString {
			return nil, p.errf("expected string separator")
		}
		agg.Separator = p.next().text
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return agg, nil
}

// builtin arity table: min and max argument counts.
var builtinArity = map[string][2]int{
	"REGEX": {2, 3}, "STR": {1, 1}, "LANG": {1, 1}, "LANGMATCHES": {2, 2},
	"DATATYPE": {1, 1}, "BOUND": {1, 1}, "IRI": {1, 1}, "URI": {1, 1},
	"ISIRI": {1, 1}, "ISURI": {1, 1}, "ISBLANK": {1, 1},
	"ISLITERAL": {1, 1}, "ISNUMERIC": {1, 1}, "STRLEN": {1, 1},
	"UCASE": {1, 1}, "LCASE": {1, 1}, "CONTAINS": {2, 2},
	"STRSTARTS": {2, 2}, "STRENDS": {2, 2}, "CONCAT": {0, 16},
	"REPLACE": {3, 4}, "ABS": {1, 1}, "CEIL": {1, 1}, "FLOOR": {1, 1},
	"ROUND": {1, 1}, "COALESCE": {1, 16}, "IF": {3, 3}, "SAMETERM": {2, 2},
}

func (p *parser) builtinCall() (Expression, error) {
	fn := p.cur().text
	ar, ok := builtinArity[fn]
	if !ok {
		return nil, p.errf("unknown function %s", fn)
	}
	p.pos++
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expression
	if !p.punct(")") {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.punct(",") {
				continue
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if len(args) < ar[0] || len(args) > ar[1] {
		return nil, p.errf("%s: wrong number of arguments (%d)", fn, len(args))
	}
	return &ExprCall{Fn: fn, Args: args}, nil
}
