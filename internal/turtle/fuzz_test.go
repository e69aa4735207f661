package turtle

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzTurtle: Each emits what the synchronous parser core emits, in the
// same order and with the same error, on any input; and whatever Parse
// accepts, N-Triples writes back as a document that parses to the same
// set of triples, and writing that again gives the same bytes. The seeds
// cover what a Turtle parser must get right beyond N-Triples: the case
// rules of the two directive spellings, BASE resolution, the extra
// triples collections and blank-node property lists emit, a trailing
// ';', escapes in every string form, and the RDF 1.2 VERSION directive
// (which this parser rejects; the round trip only speaks of accepted
// input).
func FuzzTurtle(f *testing.F) {
	for _, s := range []string{
		`<http://ex/s> <http://ex/p> <http://ex/o> .`,
		`@prefix ex: <http://ex/> . ex:a ex:p ex:b .`,
		"PREFIX ex: <http://ex/>\nex:a ex:p ex:b .",
		"prefix ex: <http://ex/>\nex:a a ex:C .",
		`@PREFIX ex: <http://ex/> . ex:a ex:p ex:b .`,
		`@prefix base: <http://ex/> . base:a base:p base:b .`,
		`@base <http://base/> . <rel> <p> <#frag> .`,
		"BASE <http://base/>\n<rel> <http://ex/p> <http://abs/o> .",
		`@prefix ex: <http://ex/> . ex:s ex:list (ex:a ex:b (ex:c) ()) .`,
		`@prefix ex: <http://ex/> . ex:a ex:p [ ex:q "in" ; ex:r [ ex:s 1 ] ] .`,
		`@prefix ex: <http://ex/> . [ ex:p "v" ] .`,
		`@prefix ex: <http://ex/> . ex:a ex:p ex:b ; ex:q ex:c ; .`,
		`@prefix ex: <http://ex/> . ex:a ex:p ex:b ;; .`,
		`<http://ex/s> <http://ex/p> "a\"b\\c\n\r\t\b\fé\U0001F600" .`,
		`<http://ex/s> <http://ex/p> 'single \' quote' .`,
		"<http://ex/s> <http://ex/p> \"\"\"long\nstring \\\"\"\" with \"quotes\"\"\"\"\" .",
		"<http://ex/s> <http://ex/p> '''long ''\nsingle''' .",
		`<http://ex/s> <http://ex/p> "tagged"@EN-gb, "typed"^^<http://ex/dt>, 42, -1.5, 1e3, true .`,
		`<http://ex/a\u000A> <http://ex/p> <http://ex/>> .`,
		`<http://ex/a b{}|^` + "`" + `> <http://ex/p> "raw\x00\x01" .`,
		`_:b1 <http://ex/p> _:b2 . _:anon1 <http://ex/p> [] .`,
		"VERSION \"1.2\"\n<http://ex/s> <http://ex/p> <http://ex/o> .",
		"@version \"1.2\" .",
		"<http://ex/s> <http://ex/p> \"bad \xff utf8\" .",
	} {
		f.Add(s)
	}
	// and the conformance suite's data files
	files, _ := filepath.Glob(filepath.Join("..", "testsuite", "testdata", "data", "*.ttl"))
	for _, path := range files {
		if raw, err := os.ReadFile(path); err == nil {
			f.Add(string(raw))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameAsCore(t, "input", src)
		g, err := Parse(src)
		if err != nil {
			return
		}
		out := WriteNTriples(g)
		g2, err := Parse(out)
		if err != nil {
			t.Fatalf("written N-Triples does not parse: %v\n%s", err, out)
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round trip has %d triples, want %d\n%s", g2.Len(), g.Len(), out)
		}
		for _, tr := range g.Triples() {
			if !g2.Has(tr) {
				t.Fatalf("round trip lost %#v\n%s", tr, out)
			}
		}
		if again := WriteNTriples(g2); again != out {
			t.Fatalf("second write differs:\n%s\nvs\n%s", again, out)
		}
	})
}
