// Package rdf provides the core RDF data model: terms (IRIs, literals,
// blank nodes), triples, and well-known vocabularies.
//
// Terms are small comparable values so they can be used directly as map
// keys; the triple store builds its dictionaries on top of that property.
package rdf

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms plus the zero value.
type TermKind uint8

// Term kinds.
const (
	// KindInvalid is the zero TermKind; the zero Term is invalid.
	KindInvalid TermKind = iota
	// KindIRI identifies an IRI term.
	KindIRI
	// KindLiteral identifies a literal term (plain, typed or language-tagged).
	KindLiteral
	// KindBlank identifies a blank node term.
	KindBlank
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return "invalid"
	}
}

// Term is an RDF term. It is a comparable value type: two Terms are equal
// exactly when they denote the same RDF term. The zero Term is invalid.
type Term struct {
	// Kind discriminates IRI / literal / blank node.
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label (without the "_:" prefix).
	Value string
	// Datatype is the datatype IRI for typed literals. Plain literals have
	// an empty Datatype (interpreted as xsd:string) and language-tagged
	// literals have Datatype rdf:langString by convention (kept empty here;
	// Lang being non-empty marks them).
	Datatype string
	// Lang is the language tag for language-tagged literals, lower-case.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewLiteral returns a plain (string) literal.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewLangLiteral returns a language-tagged literal. The tag is normalized
// to lower case per RDF 1.1 comparison rules.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: strings.ToLower(lang)}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewDouble returns an xsd:double literal, spelling the infinities and
// NaN as XSD does (INF, -INF, NaN).
func NewDouble(v float64) Term {
	lex := strconv.FormatFloat(v, 'g', -1, 64)
	switch {
	case math.IsInf(v, 1):
		lex = "INF"
	case math.IsInf(v, -1):
		lex = "-INF"
	}
	return Term{Kind: KindLiteral, Value: lex, Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero (invalid) Term.
func (t Term) IsZero() bool { return t.Kind == KindInvalid }

// EffectiveDatatype returns the literal's datatype IRI, resolving the
// empty datatype of plain literals to xsd:string and language-tagged
// literals to rdf:langString. It returns "" for non-literals.
func (t Term) EffectiveDatatype() string {
	if t.Kind != KindLiteral {
		return ""
	}
	if t.Lang != "" {
		return RDFLangString
	}
	if t.Datatype == "" {
		return XSDString
	}
	return t.Datatype
}

// IsNumeric reports whether the term is a literal of a numeric XSD type.
func (t Term) IsNumeric() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong,
		XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger,
		XSDNegativeInteger, XSDNonPositiveInteger, XSDUnsignedInt,
		XSDUnsignedLong:
		return true
	}
	return false
}

// Float returns the numeric value of a numeric literal. The second result
// reports whether the lexical form lies in the XSD lexical space of the
// literal's datatype, after the whitespace a collapse facet strips:
// integers are digits with an optional sign (and within the range a
// derived type such as xsd:byte allows), decimals add an optional
// fraction, and only xsd:double and xsd:float take an exponent, INF, -INF
// or NaN. Go's own float syntax (hex, underscores, "Inf", "infinity") is
// not XSD and is rejected.
func (t Term) Float() (float64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	s := strings.Trim(t.Value, xsdSpace)
	switch t.Datatype {
	case XSDDouble, XSDFloat:
		switch s {
		case "INF", "+INF":
			return math.Inf(1), true
		case "-INF":
			return math.Inf(-1), true
		case "NaN":
			return math.NaN(), true
		}
		if !lexDecimal(s, true) {
			return 0, false
		}
		// out of range is ±INF in the value space, not an error
		f, err := strconv.ParseFloat(s, 64)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return 0, false
		}
		return f, true
	case XSDDecimal:
		if !lexDecimal(s, false) {
			return 0, false
		}
	default:
		if !lexInteger(s, t.Datatype) {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Int returns the integer value of an integer-typed literal whose lexical
// form is in its datatype's XSD lexical space (see Float) and fits an
// int64.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	s := strings.Trim(t.Value, xsdSpace)
	if !lexInteger(s, t.Datatype) {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// xsdSpace is the whitespace the XSD collapse facet strips from the ends
// of a numeric lexical form.
const xsdSpace = " \t\n\r"

// lexDecimal reports whether s is an xsd:decimal lexical form — an
// optional sign, digits with an optional fraction, at least one digit —
// or, with exponent, an xsd:double one, which may add [eE][+-]?digits.
func lexDecimal(s string, exponent bool) bool {
	i := sign(s)
	j := digits(s, i)
	n := j - i
	if j < len(s) && s[j] == '.' {
		k := digits(s, j+1)
		n += k - j - 1
		j = k
	}
	if n == 0 {
		return false
	}
	if exponent && j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		k := j + 1
		k += sign(s[k:])
		if j = digits(s, k); j == k {
			return false
		}
	}
	return j == len(s)
}

// lexInteger reports whether s is in the lexical space of the integer
// datatype dt: an optional sign and digits, whose value lies in dt's
// range. It is false for any other datatype.
func lexInteger(s, dt string) bool {
	i := sign(s)
	if j := digits(s, i); j == i || j != len(s) {
		return false
	}
	neg := s[0] == '-'
	zero := strings.Trim(s[i:], "0") == ""
	switch dt {
	case XSDInteger:
		return true
	case XSDLong:
		return fitsInt(s, 64)
	case XSDInt:
		return fitsInt(s, 32)
	case XSDShort:
		return fitsInt(s, 16)
	case XSDByte:
		return fitsInt(s, 8)
	case XSDUnsignedLong:
		return zero || (!neg && fitsUint(s[i:], 64))
	case XSDUnsignedInt:
		return zero || (!neg && fitsUint(s[i:], 32))
	case XSDNonNegativeInteger:
		return zero || !neg
	case XSDPositiveInteger:
		return !zero && !neg
	case XSDNegativeInteger:
		return !zero && neg
	case XSDNonPositiveInteger:
		return zero || neg
	}
	return false
}

func fitsInt(s string, bits int) bool {
	_, err := strconv.ParseInt(s, 10, bits)
	return err == nil
}

func fitsUint(s string, bits int) bool {
	_, err := strconv.ParseUint(s, 10, bits)
	return err == nil
}

// sign is the length of s's optional leading sign.
func sign(s string) int {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		return 1
	}
	return 0
}

// digits returns the index of the first non-digit of s at or after i.
func digits(s string, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}

// Bool returns the boolean value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + escapeIRI(t.Value) + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(EscapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(escapeIRI(t.Datatype))
			b.WriteByte('>')
		}
		return b.String()
	default:
		return "<invalid>"
	}
}

// Compare orders terms for deterministic output: blank < IRI < literal,
// then by value, datatype and language. It returns -1, 0 or +1.
func (t Term) Compare(u Term) int {
	rank := func(k TermKind) int {
		switch k {
		case KindBlank:
			return 0
		case KindIRI:
			return 1
		case KindLiteral:
			return 2
		}
		return -1
	}
	if a, b := rank(t.Kind), rank(u.Kind); a != b {
		if a < b {
			return -1
		}
		return 1
	}
	if t.Value != u.Value {
		if t.Value < u.Value {
			return -1
		}
		return 1
	}
	if t.Datatype != u.Datatype {
		if t.Datatype < u.Datatype {
			return -1
		}
		return 1
	}
	if t.Lang != u.Lang {
		if t.Lang < u.Lang {
			return -1
		}
		return 1
	}
	return 0
}

// LocalName returns the fragment or last path segment of an IRI, which is
// the human-friendly short name used in visualizations. For non-IRIs it
// returns the term value unchanged.
func (t Term) LocalName() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexByte(v, '#'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	v = strings.TrimSuffix(v, "/")
	if i := strings.LastIndexByte(v, '/'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}

// EscapeLiteral escapes a literal lexical form for N-Triples output. It
// works byte by byte, so bytes that are not valid UTF-8 are written back
// unchanged.
func EscapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeIRI writes, as \u00XX, the characters the N-Triples IRIREF
// production excludes: #x00-#x20 and <>"{}|^`\. The Turtle parser accepts
// some of them raw, and decodes \u escapes, so every IRI it accepts is
// written back as one it reads to the same IRI. All of them are ASCII, so
// the scan is byte by byte and leaves other bytes alone.
func escapeIRI(s string) string {
	n := 0
	for i := 0; i < len(s); i++ {
		if iriExcluded(s[i]) {
			n++
		}
	}
	if n == 0 {
		return s
	}
	const hex = "0123456789ABCDEF"
	b := make([]byte, 0, len(s)+5*n)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if iriExcluded(c) {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return string(b)
}

func iriExcluded(c byte) bool {
	return c <= ' ' || strings.IndexByte("<>\"{}|^`\\", c) >= 0
}

// Triple is a single RDF statement. It is comparable.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (with trailing dot).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}
