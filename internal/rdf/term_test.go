package rdf

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatalf("IRI kind flags wrong: %+v", iri)
	}
	b := NewBlank("b0")
	if !b.IsBlank() {
		t.Fatalf("blank kind wrong: %+v", b)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Datatype != "" || lit.Lang != "" {
		t.Fatalf("plain literal wrong: %+v", lit)
	}
	lang := NewLangLiteral("ciao", "IT")
	if lang.Lang != "it" {
		t.Fatalf("language tag not normalized: %q", lang.Lang)
	}
}

func TestTypedLiteralStringDatatypeNormalized(t *testing.T) {
	l := NewTypedLiteral("x", XSDString)
	if l.Datatype != "" {
		t.Fatalf("xsd:string should normalize to empty datatype, got %q", l.Datatype)
	}
	if l != NewLiteral("x") {
		t.Fatalf("typed xsd:string and plain literal should be equal")
	}
}

func TestEffectiveDatatype(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewLiteral("a"), XSDString},
		{NewLangLiteral("a", "en"), RDFLangString},
		{NewInteger(3), XSDInteger},
		{NewIRI("http://x"), ""},
	}
	for _, c := range cases {
		if got := c.term.EffectiveDatatype(); got != c.want {
			t.Errorf("EffectiveDatatype(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestNumericConversions(t *testing.T) {
	if f, ok := NewInteger(42).Float(); !ok || f != 42 {
		t.Fatalf("integer Float = %v %v", f, ok)
	}
	if n, ok := NewInteger(-7).Int(); !ok || n != -7 {
		t.Fatalf("Int = %v %v", n, ok)
	}
	if _, ok := NewLiteral("42").Float(); ok {
		t.Fatal("plain literal must not be numeric")
	}
	if v, ok := NewBoolean(true).Bool(); !ok || !v {
		t.Fatalf("Bool = %v %v", v, ok)
	}
	if d, ok := NewDecimal(2.5).Float(); !ok || d != 2.5 {
		t.Fatalf("decimal Float = %v %v", d, ok)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewBlank("n1"), "_:n1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewInteger(5), `"5"^^<` + XSDInteger + `>`},
		{NewLiteral("a\"b\nc"), `"a\"b\nc"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct{ iri, want string }{
		{"http://example.org/onto#Event", "Event"},
		{"http://example.org/onto/Person", "Person"},
		{"http://example.org/onto/Person/", "Person"},
		{"Event", "Event"},
	}
	for _, c := range cases {
		if got := NewIRI(c.iri).LocalName(); got != c.want {
			t.Errorf("LocalName(%q) = %q, want %q", c.iri, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	terms := []Term{
		NewLiteral("z"),
		NewIRI("http://b"),
		NewBlank("x"),
		NewIRI("http://a"),
		NewLiteral("a"),
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Compare(terms[j]) < 0 })
	want := []Term{
		NewBlank("x"),
		NewIRI("http://a"),
		NewIRI("http://b"),
		NewLiteral("a"),
		NewLiteral("z"),
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, terms[i], want[i])
		}
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		ta, tb := NewIRI(a), NewIRI(b)
		return ta.Compare(tb) == -tb.Compare(ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareReflexive(t *testing.T) {
	f := func(v, dt, lang string) bool {
		tm := Term{Kind: KindLiteral, Value: v, Datatype: dt, Lang: lang}
		return tm.Compare(tm) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	want := `<http://s> <http://p> "o" .`
	if got := tr.String(); got != want {
		t.Fatalf("Triple.String() = %q, want %q", got, want)
	}
}

func TestTripleCompare(t *testing.T) {
	a := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("1"))
	b := NewTriple(NewIRI("http://b"), NewIRI("http://p"), NewLiteral("1"))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("triple ordering broken")
	}
}

func TestEscapeLiteral(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`quote"`, `quote\"`},
		{"tab\t", `tab\t`},
		{`back\slash`, `back\\slash`},
		{"line\r\n", `line\r\n`},
	}
	for _, c := range cases {
		if got := EscapeLiteral(c.in); got != c.want {
			t.Errorf("EscapeLiteral(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGraphAddDedup(t *testing.T) {
	g := NewGraph()
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewLiteral("o"))
	if !g.Add(tr) {
		t.Fatal("first Add should report true")
	}
	if g.Add(tr) {
		t.Fatal("duplicate Add should report false")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if !g.Has(tr) {
		t.Fatal("Has should find the triple")
	}
}

func TestGraphSortedIsCanonical(t *testing.T) {
	g := NewGraph()
	g.AddSPO(NewIRI("http://b"), NewIRI("http://p"), NewLiteral("1"))
	g.AddSPO(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("1"))
	s := g.Sorted()
	if s[0].S.Value != "http://a" || s[1].S.Value != "http://b" {
		t.Fatalf("Sorted order wrong: %v", s)
	}
	// insertion order preserved in Triples
	if g.Triples()[0].S.Value != "http://b" {
		t.Fatal("Triples() must preserve insertion order")
	}
}

func TestPrefixMapExpandShrink(t *testing.T) {
	pm := CommonPrefixes()
	iri, err := pm.Expand("rdf:type")
	if err != nil || iri != RDFType {
		t.Fatalf("Expand(rdf:type) = %q, %v", iri, err)
	}
	if _, err := pm.Expand("nope:x"); err == nil {
		t.Fatal("unknown prefix must error")
	}
	if _, err := pm.Expand("noprefix"); err == nil {
		t.Fatal("non-prefixed name must error")
	}
	short, ok := pm.Shrink(RDFSLabel)
	if !ok || short != "rdfs:label" {
		t.Fatalf("Shrink = %q, %v", short, ok)
	}
	if _, ok := pm.Shrink("http://unbound.example/x"); ok {
		t.Fatal("Shrink of unbound namespace should report false")
	}
}

func TestPrefixMapLongestNamespaceWins(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("a", "http://x/")
	pm.Bind("b", "http://x/deep/")
	short, ok := pm.Shrink("http://x/deep/thing")
	if !ok || short != "b:thing" {
		t.Fatalf("Shrink = %q, want b:thing", short)
	}
}

func TestPrefixMapRebind(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("p", "http://one/")
	pm.Bind("p", "http://two/")
	iri, err := pm.Expand("p:x")
	if err != nil || iri != "http://two/x" {
		t.Fatalf("rebind: Expand = %q, %v", iri, err)
	}
	if got := pm.SortedPrefixes(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("SortedPrefixes = %v", got)
	}
}

func TestShrinkRejectsSlashLocal(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("ex", "http://example.org/")
	if got, ok := pm.Shrink("http://example.org/a/b"); ok {
		t.Fatalf("Shrink should refuse local name with slash, got %q", got)
	}
}

// TestXSDNumericLexicalSpaces: Float and Int accept exactly the XSD
// lexical space of the literal's datatype, whitespace collapsed, and none
// of Go's own float syntax.
func TestXSDNumericLexicalSpaces(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		lex, dt string
		float   float64 // NaN: Float succeeds with NaN
		fok     bool
		intOK   bool
	}{
		{"42", XSDInteger, 42, true, true},
		{" +42\n", XSDInteger, 42, true, true},
		{"-0", XSDInteger, 0, true, true},
		{"007", XSDInteger, 7, true, true},
		{"1e3", XSDInteger, 0, false, false},
		{"1_000", XSDInteger, 0, false, false},
		{"0x10", XSDInteger, 0, false, false},
		{"1.0", XSDInteger, 0, false, false},
		{"", XSDInteger, 0, false, false},
		{"+", XSDInteger, 0, false, false},
		{"4 2", XSDInteger, 0, false, false},
		{"\v42", XSDInteger, 0, false, false}, // not XSD whitespace
		{"INF", XSDInteger, 0, false, false},
		{"99999999999999999999", XSDInteger, 1e20, true, false}, // past int64
		{"127", XSDByte, 127, true, true},
		{"128", XSDByte, 0, false, false},
		{"-32768", XSDShort, -32768, true, true},
		{"2147483648", XSDInt, 0, false, false},
		{"9223372036854775807", XSDLong, 9223372036854775807, true, true},
		{"-1", XSDUnsignedInt, 0, false, false},
		{"-0", XSDUnsignedLong, 0, true, true},
		{"18446744073709551615", XSDUnsignedLong, 18446744073709551615, true, false},
		{"0", XSDPositiveInteger, 0, false, false},
		{"0", XSDNonNegativeInteger, 0, true, true},
		{"-0", XSDNegativeInteger, 0, false, false},
		{"-3", XSDNonPositiveInteger, -3, true, true},
		{"1.5", XSDDecimal, 1.5, true, false},
		{"1.", XSDDecimal, 1, true, false},
		{"-.5", XSDDecimal, -0.5, true, false},
		{".", XSDDecimal, 0, false, false},
		{"1e3", XSDDecimal, 0, false, false},
		{"0x1p3", XSDDecimal, 0, false, false},
		{"Inf", XSDDecimal, 0, false, false},
		{"infinity", XSDDecimal, 0, false, false},
		{"NaN", XSDDecimal, 0, false, false},
		{"1e3", XSDDouble, 1000, true, false},
		{"1.E-2", XSDDouble, 0.01, true, false},
		{"1e", XSDDouble, 0, false, false},
		{"e3", XSDDouble, 0, false, false},
		{"1e400", XSDDouble, inf, true, false},
		{"INF", XSDDouble, inf, true, false},
		{"+INF", XSDFloat, inf, true, false},
		{"-INF", XSDFloat, -inf, true, false},
		{" NaN ", XSDDouble, nan, true, false},
		{"Inf", XSDDouble, 0, false, false},
		{"infinity", XSDDouble, 0, false, false},
		{"nan", XSDDouble, 0, false, false},
		{"0x1p3", XSDDouble, 0, false, false},
		{"1_000", XSDDouble, 0, false, false},
		{"42", "", 0, false, false},
		{"42", XSDString, 0, false, false},
	}
	for _, c := range cases {
		lit := Term{Kind: KindLiteral, Value: c.lex, Datatype: c.dt}
		f, ok := lit.Float()
		same := f == c.float || (math.IsNaN(c.float) && math.IsNaN(f))
		if ok != c.fok || (ok && !same) {
			t.Errorf("%q^^%s: Float = %v, %v; want %v, %v", c.lex, c.dt, f, ok, c.float, c.fok)
		}
		n, ok := lit.Int()
		if ok != c.intOK || (ok && float64(n) != c.float) {
			t.Errorf("%q^^%s: Int = %v, %v; want ok %v", c.lex, c.dt, n, ok, c.intOK)
		}
	}
	for _, v := range []float64{inf, -inf, nan, 1.5e300, -2} {
		if f, ok := NewDouble(v).Float(); !ok || !(f == v || math.IsNaN(v) && math.IsNaN(f)) {
			t.Errorf("NewDouble(%v) = %q reads back as %v, %v", v, NewDouble(v).Value, f, ok)
		}
	}
}

// TestSortPrefixClasses: what has a prefix, and the order within a class.
func TestSortPrefixClasses(t *testing.T) {
	none := []Term{
		NewIRI("http://x/a"), NewBlank("b"), {},
		NewTypedLiteral("2020-01-01", XSDDate), NewBoolean(true),
		NewTypedLiteral("NaN", XSDDouble), NewTypedLiteral("1e3", XSDInteger),
	}
	for _, tm := range none {
		if p := SortPrefix(tm); p != 0 {
			t.Errorf("SortPrefix(%v) = %#x, want 0", tm, p)
		}
	}
	if SortPrefix(NewTypedLiteral("-0", XSDDouble)) != SortPrefix(NewInteger(0)) {
		t.Error("-0 and 0 must share a prefix")
	}
	asc := []Term{
		NewTypedLiteral("-INF", XSDDouble), NewInteger(-3), NewDecimal(-0.5),
		NewInteger(0), NewDouble(1e-300), NewInteger(7), NewTypedLiteral("INF", XSDFloat),
	}
	for i := 1; i < len(asc); i++ {
		a, b := SortPrefix(asc[i-1]), SortPrefix(asc[i])
		if !SamePrefixClass(a, b) || a >= b {
			t.Errorf("prefix(%v) = %#x, prefix(%v) = %#x: want same class, ascending", asc[i-1], a, asc[i], b)
		}
	}
	strs := []Term{NewLiteral(""), NewLiteral("a"), NewLangLiteral("ab", "en"), NewTypedLiteral("abcdefg", XSDString), NewLiteral("abcdefh")}
	for i := 1; i < len(strs); i++ {
		a, b := SortPrefix(strs[i-1]), SortPrefix(strs[i])
		if !SamePrefixClass(a, b) || a >= b {
			t.Errorf("prefix(%v) = %#x, prefix(%v) = %#x: want same class, ascending", strs[i-1], a, strs[i], b)
		}
	}
	if SortPrefix(NewLiteral("abcdefgX")) != SortPrefix(NewLiteral("abcdefgY")) {
		t.Error("strings sharing 7 bytes must tie")
	}
	if SamePrefixClass(SortPrefix(NewLiteral("1")), SortPrefix(NewInteger(1))) {
		t.Error("a string and a number must not share a class")
	}
}
