// Package sparql implements a SPARQL 1.1 subset sufficient for every query
// H-BOLD issues: SELECT, ASK and CONSTRUCT forms, basic graph patterns,
// OPTIONAL, UNION, MINUS, FILTER with the common builtin functions
// (including REGEX, which the Listing 1 portal query relies on), BIND,
// VALUES, DISTINCT, GROUP BY with aggregates, HAVING, ORDER BY, LIMIT and
// OFFSET.
//
// The engine is algebraic: Parse produces an AST, and evaluation walks the
// pattern tree against a store.Store with selectivity-ordered BGP joins.
package sparql

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF     tokenKind = iota
	tokIRI               // <...>
	tokPName             // prefix:local or prefix: or :local
	tokVar               // ?x or $x
	tokString            // "..." or '...'
	tokNumber            // integer/decimal/double literal
	tokKeyword           // SELECT, WHERE, FILTER, ... (upper-cased)
	tokBlank             // _:label
	tokPunct             // { } ( ) . ; , * / + - = != < > <= >= && || ! ^^ @tag
	tokA                 // the 'a' keyword
)

type token struct {
	kind tokenKind
	text string // keyword text upper-cased; punct literal; var without sigil
	// number metadata
	numKind string // "integer", "decimal", "double"
	line    int
}

func (t token) String() string {
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "CONSTRUCT": true, "WHERE": true,
	"PREFIX": true, "BASE": true,
	"FILTER": true, "OPTIONAL": true, "UNION": true, "MINUS": true,
	"BIND": true, "VALUES": true, "AS": true, "DISTINCT": true,
	"REDUCED": true, "ORDER": true, "BY": true, "GROUP": true,
	"HAVING": true, "LIMIT": true, "OFFSET": true, "ASC": true, "DESC": true,
	"UNDEF": true, "TRUE": true, "FALSE": true, "IN": true, "NOT": true,
	// builtins are lexed as keywords too
	"REGEX": true, "STR": true, "LANG": true, "LANGMATCHES": true,
	"DATATYPE": true, "BOUND": true, "IRI": true, "URI": true,
	"ISIRI": true, "ISURI": true, "ISBLANK": true, "ISLITERAL": true,
	"ISNUMERIC": true, "STRLEN": true, "UCASE": true, "LCASE": true,
	"CONTAINS": true, "STRSTARTS": true, "STRENDS": true, "CONCAT": true,
	"REPLACE": true, "ABS": true, "CEIL": true, "FLOOR": true, "ROUND": true,
	"COALESCE": true, "IF": true, "SAMETERM": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"SAMPLE": true, "GROUP_CONCAT": true, "SEPARATOR": true,
	// SPARQL 1.1 Update
	"INSERT": true, "DELETE": true, "DATA": true,
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// minTokens is the most a lex starts its token array with: room for the
// short query most requests are (a point lookup is 10 tokens, EOF
// included). A source shorter than that starts with room for a token
// every two bytes and EOF.
const minTokens = 16

// sampleTokens is how many tokens push lexes before it sizes the array
// from their density.
const sampleTokens = 4 * minTokens

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, toks: make([]token, 0, min(len(src)/2+2, minTokens))}
	if err := l.run(); err != nil {
		return nil, err
	}
	l.push(token{kind: tokEOF, line: l.line})
	return l.toks, nil
}

// push appends a token. A full array doubles; once it holds sampleTokens,
// it grows instead to what the rest of the source needs at the density
// lexed so far, an eighth over. A bulk INSERT DATA, the same triple shape
// over and over, thus takes two doublings and one growth to its final
// size, where doubling from nil took fourteen; its first few triples are
// sampled, not its first one, which may be shorter than the rest.
func (l *lexer) push(t token) {
	if len(l.toks) == cap(l.toks) {
		n := len(l.toks)
		c := 2 * n
		if n >= sampleTokens {
			c = max(c, n*len(l.src)/max(l.pos, 1)*9/8+1)
		}
		toks := make([]token, n, c)
		copy(toks, l.toks)
		l.toks = toks
	}
	l.toks = append(l.toks, t)
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *lexer) emit(k tokenKind, text string) {
	l.push(token{kind: k, text: text, line: l.line})
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			l.line++
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '<':
			if err := l.lexAngle(); err != nil {
				return err
			}
		case c == '?' || c == '$':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == start {
				return l.errf("empty variable name")
			}
			l.emit(tokVar, l.src[start:l.pos])
		case c == '"' || c == '\'':
			s, err := l.lexString(c)
			if err != nil {
				return err
			}
			l.emit(tokString, s)
		case c >= '0' && c <= '9':
			l.lexNumber(false)
		case c == '_' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':':
			l.pos += 2
			start := l.pos
			for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokBlank, l.src[start:l.pos])
		case c == '@':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && (isAlpha(l.src[l.pos]) || l.src[l.pos] == '-') {
				l.pos++
			}
			l.emit(tokPunct, "@"+l.src[start:l.pos])
		case isAlpha(c):
			l.lexWord()
		case c == ':':
			// PName with empty prefix
			l.lexPNameLocal("")
		default:
			if err := l.lexPunct(); err != nil {
				return err
			}
		}
	}
	return nil
}

// lexAngle distinguishes IRI references from the '<', '<=' operators.
func (l *lexer) lexAngle() error {
	rest := l.src[l.pos+1:]
	if strings.HasPrefix(rest, "=") {
		l.emit(tokPunct, "<=")
		l.pos += 2
		return nil
	}
	// An IRIREF contains no whitespace and closes with '>'.
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '>':
			l.emit(tokIRI, rest[:i])
			l.pos += i + 2
			return nil
		case ' ', '\t', '\n', '\r', '<', '"':
			l.emit(tokPunct, "<")
			l.pos++
			return nil
		}
	}
	l.emit(tokPunct, "<")
	l.pos++
	return nil
}

// tripled reports whether the source at the cursor opens with quote
// three times: a long string's delimiter.
func (l *lexer) tripled(quote byte) bool {
	return l.pos+2 < len(l.src) && l.src[l.pos] == quote && l.src[l.pos+1] == quote && l.src[l.pos+2] == quote
}

// lexString lexes a short or long string. A literal with no escape is a
// substring of the source, as lexAngle's IRIs are; the builder starts at
// a literal's first escape, holding what came before it.
func (l *lexer) lexString(quote byte) (string, error) {
	delim := 1
	if l.tripled(quote) {
		delim = 3
	}
	long := delim == 3
	l.pos += delim
	start := l.pos
	var b strings.Builder
	escaped := false
	for {
		if l.pos >= len(l.src) {
			if long {
				return "", l.errf("unterminated long string")
			}
			return "", l.errf("unterminated string")
		}
		c := l.src[l.pos]
		if long && l.tripled(quote) || !long && c == quote {
			end := l.pos
			l.pos += delim
			if !escaped {
				return l.src[start:end], nil
			}
			return b.String(), nil
		}
		switch c {
		case '\\':
			if !escaped {
				b.WriteString(l.src[start:l.pos])
				escaped = true
			}
			r, err := l.unescape()
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			continue
		case '\n':
			if !long {
				return "", l.errf("newline in string")
			}
			l.line++
		}
		if escaped {
			b.WriteByte(c)
		}
		l.pos++
	}
}

func (l *lexer) unescape() (rune, error) {
	l.pos++
	if l.pos >= len(l.src) {
		return 0, l.errf("dangling escape")
	}
	c := l.src[l.pos]
	l.pos++
	switch c {
	case 't':
		return '\t', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	case '\\':
		return '\\', nil
	case 'u':
		if l.pos+4 > len(l.src) {
			return 0, l.errf("truncated \\u escape")
		}
		var v rune
		for i := 0; i < 4; i++ {
			d := l.src[l.pos+i]
			v <<= 4
			switch {
			case d >= '0' && d <= '9':
				v |= rune(d - '0')
			case d >= 'a' && d <= 'f':
				v |= rune(d-'a') + 10
			case d >= 'A' && d <= 'F':
				v |= rune(d-'A') + 10
			default:
				return 0, l.errf("bad \\u escape")
			}
		}
		l.pos += 4
		return v, nil
	}
	return 0, l.errf("unknown escape \\%c", c)
}

func (l *lexer) lexNumber(negative bool) {
	start := l.pos
	kind := "integer"
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		kind = "decimal"
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		kind = "double"
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	if negative {
		text = "-" + text
	}
	l.push(token{kind: tokNumber, text: text, numKind: kind, line: l.line})
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) && (isNameChar(l.src[l.pos])) {
		l.pos++
	}
	word := l.src[start:l.pos]
	// prefixed name?
	if l.pos < len(l.src) && l.src[l.pos] == ':' {
		l.lexPNameLocal(word)
		return
	}
	if word == "a" {
		l.emit(tokA, "a")
		return
	}
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.emit(tokKeyword, upper)
		return
	}
	// bare word: treat as keyword-ish error later; emit as keyword text
	l.emit(tokKeyword, upper)
}

func (l *lexer) lexPNameLocal(prefix string) {
	l.pos++ // ':'
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isNameChar(c) || c == '-' {
			l.pos++
			continue
		}
		if c == '.' && l.pos+1 < len(l.src) && isNameChar(l.src[l.pos+1]) {
			l.pos++
			continue
		}
		break
	}
	l.emit(tokPName, prefix+":"+l.src[start:l.pos])
}

func (l *lexer) lexPunct() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", ">=", "&&", "||", "^^":
		l.emit(tokPunct, two)
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '{', '}', '(', ')', '.', ';', ',', '*', '/', '+', '-', '=', '>', '!', '[', ']':
		l.emit(tokPunct, l.src[l.pos:l.pos+1]) // a substring: string(c) allocates
		l.pos++
		return nil
	}
	return l.errf("unexpected character %q", c)
}

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameChar(c byte) bool { return isAlpha(c) || isDigit(c) || c >= 0x80 }
