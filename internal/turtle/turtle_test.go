package turtle

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestParseNTriples(t *testing.T) {
	src := `<http://ex/s> <http://ex/p> <http://ex/o> .
<http://ex/s> <http://ex/p> "lit" .
<http://ex/s> <http://ex/p> "tagged"@en .
<http://ex/s> <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://ex/p> _:b2 .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if !g.Has(rdf.NewTriple(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewInteger(5))) {
		t.Fatal("typed literal triple missing")
	}
	if !g.Has(rdf.NewTriple(rdf.NewBlank("b1"), rdf.NewIRI("http://ex/p"), rdf.NewBlank("b2"))) {
		t.Fatal("blank node triple missing")
	}
}

func TestParsePrefixesAndA(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:alice a ex:Person ;
    rdfs:label "Alice" ;
    ex:knows ex:bob, ex:carol .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if !g.Has(rdf.NewTriple(rdf.NewIRI("http://ex/alice"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://ex/Person"))) {
		t.Fatal("'a' keyword triple missing")
	}
	if !g.Has(rdf.NewTriple(rdf.NewIRI("http://ex/alice"), rdf.NewIRI("http://ex/knows"), rdf.NewIRI("http://ex/carol"))) {
		t.Fatal("object list triple missing")
	}
}

func TestParseSPARQLStylePrefix(t *testing.T) {
	// PREFIX and BASE are case-insensitive; "base:" and "prefix:" used as
	// prefixes are names, not the keywords
	for _, src := range []string{
		"PREFIX ex: <http://ex/>\nex:a ex:p ex:b .",
		"prefix ex: <http://ex/>\nex:a ex:p ex:b .",
		"Prefix ex: <http://ex/>\nex:a ex:p ex:b .",
		"base <http://ex/>\nPREFIX ex: <>\nex:a ex:p ex:b .",
		"BaSe <http://ex/>\n<a> <p> <b> .",
		"@prefix base: <http://ex/> .\nbase:a base:p base:b .",
		"@prefix prefix: <http://ex/> .\nprefix:a prefix:p prefix:b .",
	} {
		g, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		want := rdf.NewTriple(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b"))
		if g.Len() != 1 || !g.Has(want) {
			t.Errorf("Parse(%q) = %v, want %v", src, g.Triples(), want)
		}
	}
	// the @-forms stay case-sensitive
	for _, src := range []string{
		"@PREFIX ex: <http://ex/> .\nex:a ex:p ex:b .",
		"@Base <http://ex/> .\n<a> <p> <b> .",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseNumericAndBooleanShorthand(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:x ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.14 ;
     ex:dbl 1.0e3 ;
     ex:t true ;
     ex:f false .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("-7", rdf.XSDInteger),
		rdf.NewTypedLiteral("3.14", rdf.XSDDecimal),
		rdf.NewTypedLiteral("1.0e3", rdf.XSDDouble),
		rdf.NewBoolean(true),
		rdf.NewBoolean(false),
	}
	for _, w := range want {
		found := false
		for _, tr := range g.Triples() {
			if tr.O == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("object %v not found", w)
		}
	}
}

func TestParseAnonymousBlankNode(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:a ex:p [ ex:q "inner" ; ex:r 1 ] .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	// the blank node must be shared between the outer and inner triples
	var anon rdf.Term
	for _, tr := range g.Triples() {
		if tr.P.Value == "http://ex/p" {
			anon = tr.O
		}
	}
	if !anon.IsBlank() {
		t.Fatalf("object of ex:p should be blank, got %v", anon)
	}
	found := 0
	for _, tr := range g.Triples() {
		if tr.S == anon {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("inner triples on anon subject = %d, want 2", found)
	}
}

func TestParseBlankSubjectPropertyList(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
[ ex:p "v" ] .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestParseCollection(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:s ex:list (ex:a ex:b) .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// head: s list b1. b1 first a. b1 rest b2. b2 first b. b2 rest nil. = 5
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	nilTerm := rdf.NewIRI(rdf.RDFNS + "nil")
	foundNil := false
	for _, tr := range g.Triples() {
		if tr.O == nilTerm {
			foundNil = true
		}
	}
	if !foundNil {
		t.Fatal("collection must terminate in rdf:nil")
	}
}

func TestParseEmptyCollection(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:s ex:list () .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if g.Triples()[0].O != rdf.NewIRI(rdf.RDFNS+"nil") {
		t.Fatalf("empty collection should be rdf:nil, got %v", g.Triples()[0].O)
	}
}

func TestParseEscapes(t *testing.T) {
	src := `<http://ex/s> <http://ex/p> "a\"b\ncé" .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Triples()[0].O.Value
	if got != "a\"b\ncé" {
		t.Fatalf("escaped literal = %q", got)
	}
}

func TestParseLongString(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:s ex:p """line one
line "two" with quotes""" .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Triples()[0].O.Value
	if !strings.Contains(got, "line one\nline \"two\"") {
		t.Fatalf("long string = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	src := `# leading comment
@prefix ex: <http://ex/> . # trailing
ex:a ex:p ex:b . # done`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestParseBase(t *testing.T) {
	src := `@base <http://base.org/> .
<rel> <http://ex/p> <http://abs/o> .`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Triples()[0].S.Value != "http://base.org/rel" {
		t.Fatalf("base not applied: %v", g.Triples()[0].S)
	}
	if g.Triples()[0].O.Value != "http://abs/o" {
		t.Fatalf("absolute IRI wrongly rebased: %v", g.Triples()[0].O)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://ex/s> <http://ex/p>`,               // missing object + dot
		`<http://ex/s> <http://ex/p> "unterminated`, // bad string
		`ex:a ex:p ex:b .`,                          // unknown prefix
		`<http://ex/s> <http://ex/p> "x"^^ .`,       // bad datatype
		`@prefix ex <http://ex/> .`,                 // missing colon... actually "ex <http..." label malformed
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRoundTripNTriples(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewLangLiteral("v\"al", "en"))
	g.AddSPO(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/q"), rdf.NewInteger(9))
	g.AddSPO(rdf.NewBlank("x"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o"))
	out := WriteNTriples(g)
	g2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip lost triples: %d vs %d", g2.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		if !g2.Has(tr) {
			t.Errorf("missing after round trip: %v", tr)
		}
	}
}

func TestRoundTripTurtle(t *testing.T) {
	pm := rdf.CommonPrefixes()
	g := rdf.NewGraph()
	g.AddSPO(rdf.NewIRI("http://ex/a"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSClass))
	g.AddSPO(rdf.NewIRI("http://ex/a"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("A"))
	g.AddSPO(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b"))
	out := WriteTurtle(g, pm)
	g2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip lost triples: %d vs %d\n%s", g2.Len(), g.Len(), out)
	}
	for _, tr := range g.Triples() {
		if !g2.Has(tr) {
			t.Errorf("missing after round trip: %v", tr)
		}
	}
}

// Property: any graph of IRI/plain-literal triples survives an
// N-Triples round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(subjects, values []string) bool {
		g := rdf.NewGraph()
		p := rdf.NewIRI("http://ex/p")
		for i, s := range subjects {
			if s == "" {
				continue
			}
			v := "v"
			if i < len(values) {
				v = values[i]
			}
			g.AddSPO(rdf.NewIRI("http://ex/s/"+sanitizeIRI(s)), p, rdf.NewLiteral(v))
		}
		out := WriteNTriples(g)
		g2, err := Parse(out)
		if err != nil {
			return false
		}
		if g2.Len() != g.Len() {
			return false
		}
		for _, tr := range g.Triples() {
			if !g2.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeIRI(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not turtle at all <<<")
}

// The substring fast path and the escape-decoding path must agree: a
// token spelled with escapes parses to the same term as its plain twin.
func TestParseEscapedTwins(t *testing.T) {
	cases := []struct{ plain, escaped string }{
		{`<http://ex/a> <http://ex/p> "x" .`, `<\u0068ttp://ex/a> <http://ex/p> "x" .`},
		{`<http://ex/a> <http://ex/p> "x" .`, `<http://ex/\U00000061> <http://ex/p> "x" .`},
		{`<http://ex/a> <http://ex/p> "ab" .`, `<http://ex/a> <http://ex/p> "\u0061b" .`},
		{`<http://ex/a> <http://ex/p> "ab" .`, `<http://ex/a> <http://ex/p> "a\u0062" .`},
		{`<http://ex/a> <http://ex/p> 'ab' .`, `<http://ex/a> <http://ex/p> '\u0061\u0062' .`},
		{`<http://ex/a> <http://ex/p> """a"b""" .`, `<http://ex/a> <http://ex/p> """a\"b""" .`},
		{`<http://ex/a> <http://ex/p> "x"^^<http://ex/dt> .`, `<http://ex/a> <http://ex/p> "x"^^<http://ex/\u0064t> .`},
	}
	for _, c := range cases {
		a, err := Parse(c.plain)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.plain, err)
		}
		b, err := Parse(c.escaped)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.escaped, err)
		}
		if a.Triples()[0] != b.Triples()[0] {
			t.Errorf("%q parses to %v, its twin %q to %v", c.plain, a.Triples()[0], c.escaped, b.Triples()[0])
		}
	}
}

// Every IRI the parser accepts survives N-Triples write -> parse. An
// IRIREF takes only \u and \U escapes; the writer escapes what the IRIREF
// production excludes, including raw characters the parser tolerates.
func TestIRIRoundTrip(t *testing.T) {
	rejected := []string{
		`<http://ex/a\n> <http://ex/p> "x" .`,
		`<http://ex/a\t> <http://ex/p> "x" .`,
		`<http://ex/a\\> <http://ex/p> "x" .`,
		`<http://ex/a\>> <http://ex/p> "x" .`,
		`<http://ex/a> <http://ex/p> "x"^^<http://ex/d\n> .`,
	}
	for _, src := range rejected {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail: an IRIREF takes only \\u and \\U escapes", src)
		}
	}
	cases := []struct {
		src string
		iri string // the subject IRI it parses to
		nt  string // the subject as N-Triples writes it
		lit string // the object as N-Triples writes it, if not "x"
	}{
		{src: `<http://ex/a\u000A> <http://ex/p> "x" .`, iri: "http://ex/a\n", nt: `<http://ex/a\u000A>`},
		{src: `<http://ex/a b> <http://ex/p> "x" .`, iri: "http://ex/a b", nt: `<http://ex/a\u0020b>`},
		{src: "<http://ex/a\tb> <http://ex/p> \"x\" .", iri: "http://ex/a\tb", nt: `<http://ex/a\u0009b>`},
		{src: "<http://ex/{a}|^`> <http://ex/p> \"x\" .", iri: "http://ex/{a}|^`", nt: `<http://ex/\u007Ba\u007D\u007C\u005E\u0060>`},
		{src: `<http://ex/\u003Ca\u003E\u0022\u005C> <http://ex/p> "x" .`, iri: `http://ex/<a>"\`, nt: `<http://ex/\u003Ca\u003E\u0022\u005C>`},
		{src: `<http://ex/é> <http://ex/p> "x" .`, iri: "http://ex/é", nt: `<http://ex/é>`},
		{
			src: `<http://ex/a> <http://ex/p> "x"^^<http://ex/d t> .`, iri: "http://ex/a", nt: `<http://ex/a>`,
			lit: `"x"^^<http://ex/d\u0020t>`,
		},
	}
	for _, c := range cases {
		g, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		tr := g.Triples()[0]
		if tr.S.Value != c.iri {
			t.Errorf("Parse(%q) subject = %q, want %q", c.src, tr.S.Value, c.iri)
		}
		lit := c.lit
		if lit == "" {
			lit = `"x"`
		}
		want := c.nt + " <http://ex/p> " + lit + " .\n"
		out := WriteNTriples(g)
		if out != want {
			t.Errorf("WriteNTriples(Parse(%q)) = %q, want %q", c.src, out, want)
		}
		g2, err := Parse(out)
		if err != nil {
			t.Errorf("reparse of %q: %v", out, err)
			continue
		}
		if g2.Len() != 1 || !g2.Has(tr) {
			t.Errorf("round trip of %q changed %v into %v", c.src, tr, g2.Triples())
		}
	}
}

// Each hands over every triple in document order, duplicates and the
// triples a collection or blank-node property list adds included, and
// stops at the first error having emitted what came before it.
func TestEachStreams(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
ex:a ex:p ex:b .
ex:a ex:p ex:b .
ex:c ex:q [ ex:r ex:d ] .
ex:e ex:s (ex:f) .`
	var got []string
	if err := Each(src, func(tr rdf.Triple) { got = append(got, tr.String()) }); err != nil {
		t.Fatal(err)
	}
	first, rest := rdf.RDFNS+"first", rdf.RDFNS+"rest"
	want := []string{
		"<http://ex/a> <http://ex/p> <http://ex/b> .",
		"<http://ex/a> <http://ex/p> <http://ex/b> .",
		"_:anon1 <http://ex/r> <http://ex/d> .",
		"<http://ex/c> <http://ex/q> _:anon1 .",
		"_:list2 <" + first + "> <http://ex/f> .",
		"_:list2 <" + rest + "> <" + rdf.RDFNS + "nil> .",
		"<http://ex/e> <http://ex/s> _:list2 .",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Each emitted\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	n := 0
	err := Each("<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/p> .", func(rdf.Triple) { n++ })
	if err == nil || n != 1 || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Each on a bad second statement: %d emitted, err %v; want 1 and a line 2 error", n, err)
	}
}
