// Package turtle implements a parser and serializer for the Turtle and
// N-Triples RDF serialization formats.
//
// The supported Turtle subset covers everything the rest of the system
// emits or consumes: @prefix / @base and the SPARQL-style PREFIX / BASE
// directives (the latter in any case), prefixed names,
// IRIs, the "a" keyword, predicate lists (";"), object lists (","), blank
// node labels, anonymous blank nodes ("[ ... ]"), string literals with
// escapes (single- and triple-quoted), language tags, datatype annotations,
// numeric shorthand (integer, decimal, double) and boolean shorthand.
// RDF collections ("( ... )") are expanded to rdf:first/rdf:rest chains.
//
// Each streams a document's triples to a callback in one pass; Parse
// collects them into an rdf.Graph.
package turtle

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/rdf"
)

// Parser holds parsing state for one document.
type Parser struct {
	src      string
	pos      int
	line     int
	prefixes *rdf.PrefixMap
	base     string
	emit     func(rdf.Triple)
	bnodeSeq int
}

// Each parses a Turtle (or N-Triples) document and hands every triple to
// emit, in one pass and without building a graph.
//
// Triples arrive in document order, duplicates included. Their strings
// may share src's memory: an IRI or a string with no escape is a
// substring of src, so whoever keeps such a term keeps the whole
// document reachable unless it copies the strings (the store's
// dictionary does). When Each returns an error, the triples before the
// error have already been emitted.
func Each(src string, emit func(rdf.Triple)) error {
	p := &Parser{
		src:      src,
		line:     1,
		prefixes: rdf.NewPrefixMap(),
		emit:     emit,
	}
	return p.run()
}

// Parse parses a Turtle (or N-Triples) document and returns the resulting
// graph, duplicates dropped.
func Parse(src string) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	if err := Each(src, func(t rdf.Triple) { g.Add(t) }); err != nil {
		return nil, err
	}
	return g, nil
}

// MustParse parses src and panics on error. Intended for fixtures in tests
// and generators.
func MustParse(src string) *rdf.Graph {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *Parser) run() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
}

func (p *Parser) statement() error {
	// the SPARQL-style keywords are case-insensitive, the @-forms are not
	if p.peekString("@prefix") || p.peekKeyword("PREFIX", true) {
		return p.prefixDirective()
	}
	if p.peekString("@base") || p.peekKeyword("BASE", true) {
		return p.baseDirective()
	}
	return p.triples()
}

func (p *Parser) prefixDirective() error {
	atForm := p.peekString("@prefix")
	if atForm {
		p.pos += len("@prefix")
	} else {
		p.pos += len("PREFIX")
	}
	p.skipWS()
	prefix, err := p.prefixLabel()
	if err != nil {
		return err
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes.Bind(prefix, iri)
	if atForm {
		p.skipWS()
		if !p.consume('.') {
			return p.errf("expected '.' after @prefix directive")
		}
	}
	return nil
}

func (p *Parser) baseDirective() error {
	atForm := p.peekString("@base")
	if atForm {
		p.pos += len("@base")
	} else {
		p.pos += len("BASE")
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	if atForm {
		p.skipWS()
		if !p.consume('.') {
			return p.errf("expected '.' after @base directive")
		}
	}
	return nil
}

func (p *Parser) triples() error {
	subj, err := p.subject()
	if err != nil {
		return err
	}
	p.skipWS()
	// An anonymous blank node may carry its own property list and then
	// terminate immediately: "[ :p :o ] ." is a legal statement.
	if p.peek() == '.' {
		p.pos++
		return nil
	}
	if err := p.predicateObjectList(subj); err != nil {
		return err
	}
	p.skipWS()
	if !p.consume('.') {
		return p.errf("expected '.' to end triples block, found %q", p.rest(12))
	}
	return nil
}

func (p *Parser) predicateObjectList(subj rdf.Term) error {
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.object()
			if err != nil {
				return err
			}
			p.emit(rdf.Triple{S: subj, P: pred, O: obj})
			p.skipWS()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		if p.peek() == ';' {
			p.pos++
			p.skipWS()
			// trailing ';' before '.' or ']' is allowed
			if c := p.peek(); c == '.' || c == ']' || c == ';' {
				for p.peek() == ';' {
					p.pos++
					p.skipWS()
				}
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *Parser) subject() (rdf.Term, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		return p.blankLabel()
	case c == '[':
		return p.anonBlank()
	case c == '(':
		return p.collection()
	default:
		name, err := p.prefixedName()
		if err != nil {
			return rdf.Term{}, err
		}
		return name, nil
	}
}

func (p *Parser) predicate() (rdf.Term, error) {
	p.skipWS()
	if p.peek() == 'a' {
		// "a" keyword only when followed by whitespace
		if p.pos+1 < len(p.src) {
			n := p.src[p.pos+1]
			if n == ' ' || n == '\t' || n == '\n' || n == '\r' {
				p.pos++
				return rdf.NewIRI(rdf.RDFType), nil
			}
		}
	}
	if p.peek() == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	}
	return p.prefixedName()
}

func (p *Parser) object() (rdf.Term, error) {
	p.skipWS()
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		return p.blankLabel()
	case c == '[':
		return p.anonBlank()
	case c == '(':
		return p.collection()
	case c == '"' || c == '\'':
		return p.literal()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return p.numericLiteral()
	case p.peekKeyword("true", false):
		p.pos += 4
		return rdf.NewBoolean(true), nil
	case p.peekKeyword("false", false):
		p.pos += 5
		return rdf.NewBoolean(false), nil
	default:
		return p.prefixedName()
	}
}

func (p *Parser) anonBlank() (rdf.Term, error) {
	if !p.consume('[') {
		return rdf.Term{}, p.errf("expected '['")
	}
	p.bnodeSeq++
	b := rdf.NewBlank(fmt.Sprintf("anon%d", p.bnodeSeq))
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		return b, nil
	}
	if err := p.predicateObjectList(b); err != nil {
		return rdf.Term{}, err
	}
	p.skipWS()
	if !p.consume(']') {
		return rdf.Term{}, p.errf("expected ']' to close blank node")
	}
	return b, nil
}

func (p *Parser) collection() (rdf.Term, error) {
	if !p.consume('(') {
		return rdf.Term{}, p.errf("expected '('")
	}
	var items []rdf.Term
	for {
		p.skipWS()
		if p.peek() == ')' {
			p.pos++
			break
		}
		if p.eof() {
			return rdf.Term{}, p.errf("unterminated collection")
		}
		item, err := p.object()
		if err != nil {
			return rdf.Term{}, err
		}
		items = append(items, item)
	}
	nilIRI := rdf.NewIRI(rdf.RDFNS + "nil")
	if len(items) == 0 {
		return nilIRI, nil
	}
	first := rdf.NewIRI(rdf.RDFNS + "first")
	rest := rdf.NewIRI(rdf.RDFNS + "rest")
	var head, prev rdf.Term
	for i, item := range items {
		p.bnodeSeq++
		node := rdf.NewBlank(fmt.Sprintf("list%d", p.bnodeSeq))
		if i == 0 {
			head = node
		} else {
			p.emit(rdf.Triple{S: prev, P: rest, O: node})
		}
		p.emit(rdf.Triple{S: node, P: first, O: item})
		prev = node
	}
	p.emit(rdf.Triple{S: prev, P: rest, O: nilIRI})
	return head, nil
}

func (p *Parser) blankLabel() (rdf.Term, error) {
	if !strings.HasPrefix(p.src[p.pos:], "_:") {
		return rdf.Term{}, p.errf("expected blank node label")
	}
	p.pos += 2
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if isPNChar(rune(c)) || c == '.' && p.pos+1 < len(p.src) && isPNChar(rune(p.src[p.pos+1])) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(p.src[start:p.pos]), nil
}

// iriRef reads an IRIREF. Without an escape the IRI is a substring of the
// document; the grammar allows only \u and \U escapes here, since ECHARs
// such as \n belong to strings.
func (p *Parser) iriRef() (string, error) {
	if !p.consume('<') {
		return "", p.errf("expected '<'")
	}
	var b strings.Builder
	from := p.pos
	for !p.eof() {
		switch p.src[p.pos] {
		case '>':
			iri := p.token(&b, from)
			p.pos++
			if p.base != "" && !strings.Contains(iri, ":") {
				iri = p.base + iri
			}
			return iri, nil
		case '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] != 'u' && p.src[p.pos+1] != 'U' {
				return "", p.errf("escape \\%c in IRI (only \\u and \\U are allowed)", p.src[p.pos+1])
			}
			if err := p.unescapeInto(&b, from); err != nil {
				return "", err
			}
			from = p.pos
			continue
		case '\n':
			return "", p.errf("newline in IRI")
		}
		p.pos++
	}
	return "", p.errf("unterminated IRI")
}

func (p *Parser) prefixLabel() (string, error) {
	start := p.pos
	for !p.eof() && p.src[p.pos] != ':' {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' {
			return "", p.errf("malformed prefix label")
		}
		p.pos++
	}
	if p.eof() {
		return "", p.errf("expected ':' in prefix label")
	}
	label := p.src[start:p.pos]
	p.pos++ // consume ':'
	return label, nil
}

func (p *Parser) prefixedName() (rdf.Term, error) {
	start := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if c == ':' {
			break
		}
		if !isPNChar(rune(c)) {
			break
		}
		p.pos++
	}
	if p.eof() || p.src[p.pos] != ':' {
		return rdf.Term{}, p.errf("expected prefixed name, found %q", p.rest(12))
	}
	prefix := p.src[start:p.pos]
	p.pos++ // ':'
	lstart := p.pos
	for !p.eof() {
		c := p.src[p.pos]
		if isPNChar(rune(c)) || c == '-' {
			p.pos++
			continue
		}
		// dots are allowed inside local names but not as the final char
		if c == '.' && p.pos+1 < len(p.src) && isPNChar(rune(p.src[p.pos+1])) {
			p.pos++
			continue
		}
		break
	}
	local := p.src[lstart:p.pos]
	ns, ok := p.prefixes.Namespace(prefix)
	if !ok {
		return rdf.Term{}, p.errf("unknown prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

func (p *Parser) literal() (rdf.Term, error) {
	quote := p.src[p.pos]
	long := strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(quote), 3))
	var lex string
	var err error
	if long {
		lex, err = p.longString(quote)
	} else {
		lex, err = p.shortString(quote)
	}
	if err != nil {
		return rdf.Term{}, err
	}
	// suffix: @lang or ^^datatype
	if p.peek() == '@' {
		p.pos++
		start := p.pos
		for !p.eof() {
			c := p.src[p.pos]
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, p.src[start:p.pos]), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		var dt string
		if p.peek() == '<' {
			dt, err = p.iriRef()
			if err != nil {
				return rdf.Term{}, err
			}
		} else {
			t, err := p.prefixedName()
			if err != nil {
				return rdf.Term{}, err
			}
			dt = t.Value
		}
		return rdf.NewTypedLiteral(lex, dt), nil
	}
	return rdf.NewLiteral(lex), nil
}

// shortString reads a single-quoted string; like iriRef it returns a
// substring of the document unless the string holds an escape.
func (p *Parser) shortString(quote byte) (string, error) {
	p.pos++ // opening quote
	var b strings.Builder
	from := p.pos
	for !p.eof() {
		switch p.src[p.pos] {
		case quote:
			lex := p.token(&b, from)
			p.pos++
			return lex, nil
		case '\\':
			if err := p.unescapeInto(&b, from); err != nil {
				return "", err
			}
			from = p.pos
			continue
		case '\n':
			return "", p.errf("newline in single-quoted string")
		}
		p.pos++
	}
	return "", p.errf("unterminated string")
}

func (p *Parser) longString(quote byte) (string, error) {
	p.pos += 3
	closer := p.src[p.pos-3 : p.pos]
	var b strings.Builder
	from := p.pos
	for !p.eof() {
		switch c := p.src[p.pos]; {
		case c == quote && strings.HasPrefix(p.src[p.pos:], closer):
			lex := p.token(&b, from)
			p.pos += 3
			return lex, nil
		case c == '\\':
			if err := p.unescapeInto(&b, from); err != nil {
				return "", err
			}
			from = p.pos
			continue
		case c == '\n':
			p.line++
		}
		p.pos++
	}
	return "", p.errf("unterminated long string")
}

// token returns the token text that ends at p.pos: b holds it decoded up
// to the end of its last escape, and src[from:p.pos] is the rest. With no
// escape b is empty (every escape writes at least one byte) and the text
// is that substring of the document, uncopied.
func (p *Parser) token(b *strings.Builder, from int) string {
	if b.Len() == 0 {
		return p.src[from:p.pos]
	}
	b.WriteString(p.src[from:p.pos])
	return b.String()
}

// unescapeInto moves the pending text src[from:p.pos] into b, then decodes
// the escape at p.pos into it.
func (p *Parser) unescapeInto(b *strings.Builder, from int) error {
	b.WriteString(p.src[from:p.pos])
	r, err := p.unescape()
	if err != nil {
		return err
	}
	b.WriteRune(r)
	return nil
}

func (p *Parser) unescape() (rune, error) {
	p.pos++ // backslash
	if p.eof() {
		return 0, p.errf("dangling escape")
	}
	c := p.src[p.pos]
	p.pos++
	switch c {
	case 't':
		return '\t', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	case '\\':
		return '\\', nil
	case 'u', 'U':
		n := 4
		if c == 'U' {
			n = 8
		}
		if p.pos+n > len(p.src) {
			return 0, p.errf("truncated \\%c escape", c)
		}
		var v rune
		for i := 0; i < n; i++ {
			d := p.src[p.pos+i]
			v <<= 4
			switch {
			case d >= '0' && d <= '9':
				v |= rune(d - '0')
			case d >= 'a' && d <= 'f':
				v |= rune(d-'a') + 10
			case d >= 'A' && d <= 'F':
				v |= rune(d-'A') + 10
			default:
				return 0, p.errf("bad hex digit %q in unicode escape", d)
			}
		}
		p.pos += n
		if !utf8.ValidRune(v) {
			return 0, p.errf("invalid unicode escape")
		}
		return v, nil
	default:
		return 0, p.errf("unknown escape \\%c", c)
	}
}

func (p *Parser) numericLiteral() (rdf.Term, error) {
	start := p.pos
	if c := p.peek(); c == '+' || c == '-' {
		p.pos++
	}
	digits := 0
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
		digits++
	}
	isDecimal := false
	if !p.eof() && p.src[p.pos] == '.' {
		// a '.' is part of the number only if followed by a digit
		if p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9' {
			isDecimal = true
			p.pos++
			for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
				p.pos++
				digits++
			}
		}
	}
	isDouble := false
	if !p.eof() && (p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
		isDouble = true
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
	}
	if digits == 0 {
		return rdf.Term{}, p.errf("malformed numeric literal")
	}
	lex := p.src[start:p.pos]
	switch {
	case isDouble:
		return rdf.NewTypedLiteral(lex, rdf.XSDDouble), nil
	case isDecimal:
		return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	}
}

// --- low-level scanning ---

func (p *Parser) eof() bool { return p.pos >= len(p.src) }

func (p *Parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *Parser) consume(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peekString(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

// peekKeyword matches a keyword, ignoring case if fold, that is not the
// start of a longer name: "base:x" is a prefixed name, not BASE.
func (p *Parser) peekKeyword(kw string, fold bool) bool {
	end := p.pos + len(kw)
	if end > len(p.src) {
		return false
	}
	if w := p.src[p.pos:end]; w != kw && !(fold && strings.EqualFold(w, kw)) {
		return false
	}
	if end == len(p.src) {
		return true
	}
	c := p.src[end]
	return !isPNChar(rune(c)) && c != ':' && c != '-'
}

func (p *Parser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\r':
			p.pos++
		case '\n':
			p.line++
			p.pos++
		case '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *Parser) rest(n int) string {
	if p.pos+n > len(p.src) {
		n = len(p.src) - p.pos
	}
	return p.src[p.pos : p.pos+n]
}

func isPNChar(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
		(r >= '0' && r <= '9') || r >= utf8.RuneSelf
}
