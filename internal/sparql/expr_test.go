package sparql

import (
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

// evalString runs the expression's slot program over a row of b's terms.
func evalString(t *testing.T, expr string, b Binding) (rdf.Term, error) {
	t.Helper()
	// parse the expression through a dummy query filter
	q, err := Parse(`SELECT ?x WHERE { ?x ?p ?o FILTER(` + expr + `) }`)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	var vars []string
	var row []rdf.Term
	for v, term := range b {
		vars, row = append(vars, v), append(row, term)
	}
	prog := exprCompiler{slot: func(v string) int { return slices.Index(vars, v) }}.val(q.Where.Filters[0])
	return prog(&exprRow{terms: row})
}

func TestEffectiveBool(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want bool
		err  bool
	}{
		{rdf.NewBoolean(true), true, false},
		{rdf.NewBoolean(false), false, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(7), true, false},
		{rdf.NewDouble(0.0), false, false},
		{rdf.NewLiteral(""), false, false},
		{rdf.NewLiteral("x"), true, false},
		{rdf.NewLangLiteral("x", "en"), true, false},
		{rdf.NewIRI("http://x"), false, true},
		{rdf.NewTypedLiteral("z", rdf.XSDDate), false, true},
	}
	for _, c := range cases {
		got, err := EffectiveBool(c.term)
		if c.err {
			if err == nil {
				t.Errorf("EffectiveBool(%v) should error", c.term)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("EffectiveBool(%v) = %v, %v; want %v", c.term, got, err, c.want)
		}
	}
}

func TestNumericPromotion(t *testing.T) {
	cases := []struct {
		expr string
		want string // datatype IRI
	}{
		{"1 + 2", rdf.XSDInteger},
		{"1 + 2.5", rdf.XSDDecimal},
		{"1 / 2", rdf.XSDDecimal}, // fractional result promotes
		{"4 / 2", rdf.XSDInteger},
		{"1 + 1.0e0", rdf.XSDDouble},
	}
	for _, c := range cases {
		got, err := evalString(t, c.expr, Binding{})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got.Datatype != c.want {
			t.Errorf("%s: datatype = %q, want %q", c.expr, got.Datatype, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, expr := range []string{
		`1 / 0`,
		`"a" + 1`,
		`-"x"`,
	} {
		if _, err := evalString(t, expr, Binding{}); err == nil {
			t.Errorf("%s should error", expr)
		}
	}
}

func TestComparisonSemantics(t *testing.T) {
	b := Binding{
		"i": rdf.NewIRI("http://a"),
		"j": rdf.NewIRI("http://a"),
		"k": rdf.NewIRI("http://b"),
		"n": rdf.NewInteger(5),
		"m": rdf.NewDecimal(5.0),
		"s": rdf.NewLiteral("abc"),
	}
	truthy := []string{
		`?i = ?j`, `?i != ?k`, `?n = ?m`, // numeric value equality
		`?n >= 5`, `?s < "abd"`, `?s = "abc"`,
	}
	for _, expr := range truthy {
		got, err := evalString(t, expr, b)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if v, _ := got.Bool(); !v {
			t.Errorf("%s should be true", expr)
		}
	}
	// IRIs are not orderable
	if _, err := evalString(t, `?i < ?k`, b); err == nil {
		t.Error("IRI ordering should error")
	}
	// incomparable literal equality errors
	if _, err := evalString(t, `"2020-01-01"^^<http://www.w3.org/2001/XMLSchema#date> = 5`, b); err == nil {
		t.Error("cross-datatype literal equality should error")
	}
}

func TestBooleanComparison(t *testing.T) {
	got, err := evalString(t, "true > false", Binding{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("true > false should hold")
	}
}

func TestDateOrdering(t *testing.T) {
	b := Binding{
		"d1": rdf.NewTypedLiteral("2020-01-03", rdf.XSDDate),
		"d2": rdf.NewTypedLiteral("2020-03-30", rdf.XSDDate),
	}
	got, err := evalString(t, "?d1 < ?d2", b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("date ordering broken")
	}
}

func TestRegexFlagsAndErrors(t *testing.T) {
	b := Binding{"s": rdf.NewLiteral("Hello\nWorld")}
	got, err := evalString(t, `regex(?s, "hello", "i")`, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("case-insensitive regex failed")
	}
	got, err = evalString(t, `regex(?s, "Hello.World", "s")`, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("dotall regex failed")
	}
	if _, err := evalString(t, `regex(?s, "[unclosed")`, b); err == nil {
		t.Fatal("bad regex should error")
	}
}

// TestRegexCacheIsSafeForConcurrentQueries: queries run on many
// goroutines at once (every request of a server), and REGEX patterns
// share one process-wide cache; under -race an unlocked cache fails here.
func TestRegexCacheIsSafeForConcurrentQueries(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				b := Binding{"s": rdf.NewLiteral("x" + strconv.Itoa(i))}
				if _, err := evalString(t, `regex(?s, "x`+strconv.Itoa(g*50+i)+`")`, b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestStringFunctions(t *testing.T) {
	b := Binding{"s": rdf.NewLiteral("héllo")}
	got, err := evalString(t, "STRLEN(?s) = 5", b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("STRLEN must count runes, not bytes")
	}
	got, _ = evalString(t, `CONCAT("a", "b", STR(1)) = "ab1"`, b)
	if v, _ := got.Bool(); !v {
		t.Fatal("CONCAT failed")
	}
	got, _ = evalString(t, `REPLACE("aaa", "a", "b") = "bbb"`, b)
	if v, _ := got.Bool(); !v {
		t.Fatal("REPLACE failed")
	}
}

func TestRoundingFunctions(t *testing.T) {
	for _, c := range []struct {
		expr string
		want int64
	}{
		{"ABS(-3)", 3},
		{"CEIL(2.1)", 3},
		{"FLOOR(2.9)", 2},
		{"ROUND(2.5)", 3},
	} {
		got, err := evalString(t, c.expr+" = "+itoa(int(c.want)), Binding{})
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if v, _ := got.Bool(); !v {
			t.Errorf("%s != %d", c.expr, c.want)
		}
	}
}

func TestLangMatches(t *testing.T) {
	b := Binding{"l": rdf.NewLangLiteral("ciao", "it-IT")}
	for expr, want := range map[string]bool{
		`LANGMATCHES(LANG(?l), "it")`: true,
		`LANGMATCHES(LANG(?l), "*")`:  true,
		`LANGMATCHES(LANG(?l), "en")`: false,
	} {
		got, err := evalString(t, expr, b)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if v, _ := got.Bool(); v != want {
			t.Errorf("%s = %v, want %v", expr, v, want)
		}
	}
}

func TestIRIFunctionAndSameTerm(t *testing.T) {
	b := Binding{"s": rdf.NewLiteral("http://x/a")}
	got, err := evalString(t, `ISIRI(IRI(?s))`, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Bool(); !v {
		t.Fatal("IRI() should build an IRI")
	}
	got, _ = evalString(t, `SAMETERM(5, 5)`, b)
	if v, _ := got.Bool(); !v {
		t.Fatal("SAMETERM same literal failed")
	}
	got, _ = evalString(t, `SAMETERM(5, 5.0)`, b)
	if v, _ := got.Bool(); v {
		t.Fatal("SAMETERM must be syntactic, not value-based")
	}
}

// Property: EffectiveBool of any integer literal equals (n != 0).
func TestQuickEffectiveBoolIntegers(t *testing.T) {
	f := func(n int64) bool {
		v, err := EffectiveBool(rdf.NewInteger(n))
		return err == nil && v == (n != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: termOrder agrees with numeric order on random pairs.
func TestQuickTermOrderNumeric(t *testing.T) {
	f := func(a, b int32) bool {
		c, err := TermOrder(rdf.NewInteger(int64(a)), rdf.NewInteger(int64(b)))
		if err != nil {
			return false
		}
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestXSDNumericComparisons: comparisons follow the XSD lexical spaces —
// Go-only float syntax is a malformed numeric, not a number — and every
// ordering comparison with NaN is false rather than an error or a tie.
func TestXSDNumericComparisons(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	b := Binding{
		"nan":   rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		"inf":   rdf.NewTypedLiteral("INF", rdf.XSDFloat),
		"one":   rdf.NewInteger(1),
		"ws":    rdf.NewTypedLiteral(" 2\t", rdf.XSDInteger),
		"e3":    rdf.NewTypedLiteral("1e3", rdf.XSDInteger),
		"hex":   rdf.NewTypedLiteral("0x1p3", rdf.XSDDecimal),
		"goinf": rdf.NewTypedLiteral("Inf", rdf.XSDDouble),
	}
	cases := []struct {
		expr string
		want bool
		err  bool
	}{
		{`?nan <= 1`, false, false},
		{`?nan > 1`, false, false},
		{`?nan < ?nan`, false, false},
		{`?nan >= ?inf`, false, false},
		{`!(?nan <= 1)`, true, false},
		{`?inf > 1e308`, true, false},
		{`?ws > ?one`, true, false},
		{`?ws = 2`, true, false},
		{`?one < "1e3"^^<` + xsd + `double>`, true, false},
		{`?e3 > ?one`, false, true},
		{`?hex < 9`, false, true},
		{`?goinf > 1`, false, true},
		{`?e3 + 1`, false, true},
	}
	for _, c := range cases {
		got, err := evalString(t, c.expr, b)
		if c.err {
			if err == nil {
				t.Errorf("%s = %v, want an error", c.expr, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if v, _ := got.Bool(); v != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	// ORDER BY places NaN by the total term order: after the numbers
	// whose lexical forms sort before "NaN", and not tied with them
	conds := []OrderCond{{Expr: &ExprVar{Name: "x"}}}
	keyer := NewOrderKeyer(conds, []string{"x"})
	key := func(t rdf.Term) OrderKey { return keyer([]rdf.Term{t}) }
	for _, v := range []rdf.Term{b["one"], b["inf"], rdf.NewInteger(-5), rdf.NewDecimal(1e9)} {
		if c := CompareOrderKeys(conds, key(v), key(b["nan"])); c >= 0 {
			t.Errorf("ORDER BY compares %v to NaN as %d, want it first", v, c)
		}
	}
	if c := CompareOrderKeys(conds, key(b["nan"]), key(b["nan"])); c != 0 {
		t.Errorf("NaN against itself = %d", c)
	}
}
