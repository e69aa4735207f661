package sparql

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestLexStringSlicesEscapeFreeLiterals: a literal without a backslash
// is a substring of the source, one with an escape is rebuilt, and both
// carry the values and line numbers the lexer has always given them,
// error lines included.
func TestLexStringSlicesEscapeFreeLiterals(t *testing.T) {
	cases := []struct {
		src, text string
		line      int
		sliced    bool
	}{
		{`"plain"`, "plain", 1, true},
		{`'single'`, "single", 1, true},
		{`""`, "", 1, true},
		{`"it's"`, "it's", 1, true},
		{`"a\"b"`, `a"b`, 1, false},
		{`"tab\tendé"`, "tab\tendé", 1, false},
		{"\"\"\"two\nlines\"\"\"", "two\nlines", 2, true},
		{"'''x\n\\n'y'\n'''", "x\n\n'y'\n", 3, false},
	}
	for _, c := range cases {
		full := c.src + " ?v"
		toks, err := lex(full)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		tok := toks[0]
		if tok.kind != tokString || tok.text != c.text || tok.line != c.line {
			t.Errorf("%s: token %q on line %d, want %q on line %d", c.src, tok.text, tok.line, c.text, c.line)
		}
		if toks[1].line != c.line {
			t.Errorf("%s: the next token is on line %d, want %d", c.src, toks[1].line, c.line)
		}
		if c.text == "" {
			continue
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(tok.text))) - uintptr(unsafe.Pointer(unsafe.StringData(full)))
		if sliced := at < uintptr(len(full)); sliced != c.sliced {
			t.Errorf("%s: sliced from the source %v, want %v", c.src, sliced, c.sliced)
		}
	}

	for _, c := range []struct{ src, err string }{
		{`"open`, "line 1: unterminated string"},
		{"\"a\nb\"", "line 1: newline in string"},
		{"'''a\nb", "line 2: unterminated long string"},
		{"'''a\nb\\", "line 2: dangling escape"},
		{`"a\q"`, "line 1: "},
	} {
		if _, err := lex(c.src); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%q: error %v, want one containing %q", c.src, err, c.err)
		}
	}
}

// bulkInsert is the benchmark's bulk update: 400 fresh subjects, each
// typed and given four literals padded to ≈ 500 characters.
func bulkInsert() string {
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for s := 0; s < 400; s++ {
		subj := fmt.Sprintf("<http://bench.example.org/w/c0-b1/s%d>", s)
		fmt.Fprintf(&b, "%s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench.example.org/ontology/C3> .\n", subj)
		for v := 0; v < 4; v++ {
			val := fmt.Sprintf("~w-c0-b1-s%d-%d%s", s, v, strings.Repeat(" lorem ipsum", 40))
			fmt.Fprintf(&b, "%s <http://bench.example.org/ontology/p%d> %q .\n", subj, v, val)
		}
	}
	b.WriteString("}")
	return b.String()
}

// TestLexSizesItsTokenArray: a bulk INSERT DATA doubles its token array
// twice from 16 and then grows it once, to what the rest of the source
// needs at the density of its first 64 tokens, an eighth over; doubling
// from nil took fifteen allocations and left up to twice the room. Each
// of the benchmark's read shapes lexes with one allocation, where
// doubling from nil, with a string allocated for every '.' and every
// 'a', took five to fourteen.
func TestLexSizesItsTokenArray(t *testing.T) {
	size := int(unsafe.Sizeof(token{}))
	bulk := bulkInsert()
	toks, err := lex(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { lex(bulk) }); allocs > 4 {
		t.Errorf("a bulk INSERT DATA of %d tokens lexes with %.0f allocations; want its token array's first, two doublings and one growth", len(toks), allocs)
	}
	if c := cap(toks); c > len(toks)*5/4 {
		t.Errorf("a bulk INSERT DATA of %d tokens grew its array to %d (%d B)", len(toks), c, c*size)
	}
	t.Logf("bulk INSERT DATA: %d bytes, %d tokens, an array of %d", len(bulk), len(toks), cap(toks))
	cls := "<http://bench.example.org/ontology/C3>"
	for _, q := range []string{
		"ASK {}",
		"SELECT ?p ?o WHERE { <http://bench.example.org/resource/i123> ?p ?o }",
		"SELECT ?s WHERE { ?s a " + cls + " } LIMIT 100",
		"SELECT ?s ?o WHERE { ?s a " + cls + " . ?s <http://bench.example.org/ontology/p0> ?o } LIMIT 200",
		"SELECT DISTINCT ?p WHERE { ?s a " + cls + " . ?s ?p ?o }",
		"SELECT ?s ?v WHERE { ?s <http://bench.example.org/ontology/p0> ?v } ORDER BY ?v LIMIT 10",
		"SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 2000",
	} {
		if allocs := testing.AllocsPerRun(20, func() { lex(q) }); allocs != 1 {
			t.Errorf("%s: %.0f allocations; want 1", q, allocs)
		}
	}
}
