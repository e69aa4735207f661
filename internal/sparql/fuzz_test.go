package sparql_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
)

// FuzzQuery: Parse never panics on any input, and a query that parses
// runs without panicking — to completion or to its one-second deadline —
// on the executor and on the reference evaluator over the fixture store.
// The corpus is seeded with the conformance suite's query files.
//
// The reference evaluator takes no context and materializes every
// intermediate solution set, so it only runs on inputs the executor
// finished quickly: the executor visits the same intermediate rows, which
// makes its wall time a bound on what the reference will allocate.
func FuzzQuery(f *testing.F) {
	seeds, err := filepath.Glob("../testsuite/testdata/queries/*.rq")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed queries: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	// CONCAT is the one built-in that may take no argument
	f.Add(`SELECT * WHERE { ?s ?p ?o FILTER(CONCAT()) }`)
	f.Add(`SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING(CONCAT())`)
	f.Add(`SELECT * WHERE { ?s ?p ?o BIND(IF(CONCAT(), 1, 2) AS ?x) FILTER(!CONCAT()) }`)
	st := diffStore(f)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sparql.Parse(text)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		t0 := time.Now()
		rs, err := q.Stream(ctx, st)
		if err == nil {
			_, err = rs.Collect()
		}
		if errors.Is(err, context.DeadlineExceeded) || time.Since(t0) > 20*time.Millisecond {
			return
		}
		// evaluation errors are legitimate; the two must agree on having one
		if _, rerr := reference.Exec(q, st); (rerr == nil) != (err == nil) {
			t.Fatalf("errors disagree on %q: executor=%v reference=%v", text, err, rerr)
		}
	})
}

// TestParseBoundsNesting: each of the parser's three recursion cycles —
// group patterns, unary/bracketed expressions, anonymous blank nodes —
// rejects input nested past maxNesting instead of recursing until the
// goroutine stack overflows (a fatal error, not a panic: before the
// bound, two million levels of "{" — a 4 MB query — killed the process),
// and still accepts and runs nesting within the bound.
func TestParseBoundsNesting(t *testing.T) {
	shapes := map[string]func(n int) string{
		"groups": func(n int) string {
			return "SELECT * WHERE " + strings.Repeat("{", n) + " ?s ?p ?o " + strings.Repeat("}", n)
		},
		"optionals": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o " + strings.Repeat("OPTIONAL { ?s ?p ?o ", n) + strings.Repeat("}", n) + "}"
		},
		"parens": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ") }"
		},
		"nots": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("!", n) + "true) }"
		},
		"bnodes": func(n int) string {
			return "SELECT * WHERE { ?s ?p " + strings.Repeat("[ ?p ", n) + "?o" + strings.Repeat(" ]", n) + " }"
		},
	}
	st := diffStore(t)
	for name, shape := range shapes {
		if _, err := sparql.Parse(shape(4 * sparql.MaxNesting)); err == nil || !strings.Contains(err.Error(), "nesting") {
			t.Errorf("%s: %d levels: err = %v, want the nesting bound", name, 4*sparql.MaxNesting, err)
		}
		q, err := sparql.Parse(shape(sparql.MaxNesting / 2))
		if err != nil {
			t.Errorf("%s: %d levels rejected: %v", name, sparql.MaxNesting/2, err)
			continue
		}
		if _, err := q.Exec(st); err != nil {
			t.Errorf("%s: exec: %v", name, err)
		}
		if _, err := reference.Exec(q, st); err != nil {
			t.Errorf("%s: reference: %v", name, err)
		}
	}
}

// FuzzJSONRowReader holds the streaming results reader to encoding/json:
// on any bytes it never panics, and where it reads every row and reaches
// io.EOF, encoding/json decodes the same document to the same rows,
// each cell placed by its variable's position in the head (refDecode).
// The reader's leniencies are checked as such: it stops at the end of
// the document and does not read what follows (the document must end
// where encoding/json's decoder stopped, and be valid up to there), and
// it skips members after the bindings unread, which encoding/json does
// with members it does not map (the rows must still agree). A head,
// results or bindings member after the bindings is an error instead
// (TestJSONRowReaderGarbage).
func FuzzJSONRowReader(f *testing.F) {
	for _, doc := range []string{
		`{"head":{"vars":["p","l"]},"results":{"bindings":[{"p":{"type":"uri","value":"http://ex/alice"},"l":{"type":"literal","value":"Alice","xml:lang":"en"}},{"l":{"type":"literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
		`{"head":{},"boolean":true}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"x"}} garbage`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"wat","value":"x"}}]}}`,
		`not json at all`,
		`{"results":{"bindings":[{"s":{"type":"uri","value":"x"}}]},"head":{"vars":["s"]}}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"a"},"s":{"type":"bnode","value":"b"}}]}}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"a"},"z":{"type":"uri","value":"z"}},{}]}}`,
		`{"head":{"vars":["s","t"]},"results":{"bindings":[{"s":{"type":"literal","value":"é😀 \"","datatype":"http://ex/dt"},"t":{"type":"typed-literal","value":"1"}}]}}`,
		`{"head":{"vars":["s","s"]},"results":{"distinct":false,"bindings":[{"s":{"type":"bnode","value":"b0"}}],"ordered":true},"link":[]} trailing`,
		`{"head":{"vars":["s"]},"results":{"bindings":[]},"head":{"vars":["t"]}}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"x"}}]}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri"`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		rr, err := sparql.NewJSONRowReader(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var got [][]rdf.Term
		row := make([]rdf.Term, len(rr.Vars()))
		for err == nil {
			if err = rr.Next(row); err == nil {
				got = append(got, slices.Clone(row))
			}
		}
		if err != io.EOF {
			return
		}
		vars, want, end, ok := refDecode(doc)
		if !ok {
			t.Fatalf("the reader read a document encoding/json rejects: %q", doc)
		}
		if !json.Valid(doc[:end]) {
			t.Fatalf("the reader read past the end of the document: %q", doc)
		}
		if !slices.Equal(rr.Vars(), vars) {
			t.Fatalf("head %q, encoding/json decodes %q", rr.Vars(), vars)
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows, encoding/json decodes %d", len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("row %d = %v, encoding/json decodes %v", i, got[i], want[i])
			}
		}
	})
}

// refDecode is encoding/json's reading of a results document's rows:
// the document and results members matched by name exactly, as the
// format spells them (the head and each term go through encoding/json's
// struct decoding, as in the reader), the last of duplicate members
// winning. Each row has the head's width; a cell outside the head is
// dropped and a variable a binding leaves out is the zero Term. end is
// the offset at which the document ends; ok is false where encoding/json
// fails or a cell in the head is no term.
func refDecode(doc []byte) (vars []string, rows [][]rdf.Term, end int, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var top map[string]json.RawMessage
	if dec.Decode(&top) != nil {
		return nil, nil, 0, false
	}
	var head struct {
		Vars []string `json:"vars"`
	}
	var results map[string]json.RawMessage
	var bindings []map[string]json.RawMessage
	if raw, in := top["head"]; in && json.Unmarshal(raw, &head) != nil {
		return nil, nil, 0, false
	}
	if raw, in := top["results"]; in && json.Unmarshal(raw, &results) != nil {
		return nil, nil, 0, false
	}
	if raw, in := results["bindings"]; in && json.Unmarshal(raw, &bindings) != nil {
		return nil, nil, 0, false
	}
	for _, b := range bindings {
		row := make([]rdf.Term, len(head.Vars))
		for i, v := range head.Vars {
			raw, in := b[v]
			if !in {
				continue
			}
			var cell struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
				Lang     string `json:"xml:lang"`
			}
			if json.Unmarshal(raw, &cell) != nil {
				return nil, nil, 0, false
			}
			switch cell.Type {
			case "uri":
				row[i] = rdf.NewIRI(cell.Value)
			case "bnode":
				row[i] = rdf.NewBlank(cell.Value)
			case "literal", "typed-literal":
				if cell.Lang != "" {
					row[i] = rdf.NewLangLiteral(cell.Value, cell.Lang)
				} else {
					row[i] = rdf.NewTypedLiteral(cell.Value, cell.Datatype)
				}
			default:
				return nil, nil, 0, false
			}
		}
		rows = append(rows, row)
	}
	return head.Vars, rows, int(dec.InputOffset()), true
}

// FuzzSortPrefix holds rdf.SortPrefix to its contract on arbitrary
// literal pairs: when both prefixes are non-zero and of one class, the
// order of the prefixes is the order ORDER BY puts the terms in, strictly
// — the top-k bound drops a row on nothing more. A literal is a lexical
// form, a datatype picked from the numeric, string-ish and other types,
// and a language tag (which makes it rdf:langString).
func FuzzSortPrefix(f *testing.F) {
	const (
		plain = iota
		xstring
		integer
		decimal
		double
		float
		byteT
		unsignedLong
		date
		boolean
		other
		ndatatypes
	)
	datatypes := [ndatatypes]string{
		"", rdf.XSDString, rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDFloat,
		rdf.XSDByte, rdf.XSDUnsignedLong, rdf.XSDDate, rdf.XSDBoolean, "http://ex/dt",
	}
	for _, s := range []struct {
		a     string
		da    uint8
		la, b string
		db    uint8
		lb    string
	}{
		{"-0", double, "", "0", integer, ""},
		{"-0", decimal, "", "+0.0", double, ""},
		{"NaN", double, "", "1", integer, ""},
		{"NaN", float, "", "NaN", double, ""},
		{"INF", double, "", "-INF", float, ""},
		{"INF", float, "", "1e308", double, ""},
		{"abcdefgX", plain, "", "abcdefgY", xstring, ""},
		{"abcdefg", plain, "", "abcdefg\x00", plain, ""},
		{"é", plain, "", "z", plain, ""},
		{"日本語", plain, "ja", "日本", plain, ""},
		{"", plain, "", "a", plain, ""},
		{"chat", plain, "fr", "chat", plain, ""},
		{"chat", plain, "en", "chien", xstring, ""},
		{"1", plain, "", "1", integer, ""},
		{"2", integer, "", "10", plain, ""},
		{" 7 ", byteT, "", "7.5", decimal, ""},
		{"300", byteT, "", "1", unsignedLong, ""},
		{"2020-01-01", date, "", "2021-01-01", date, ""},
		{"true", boolean, "", "false", boolean, ""},
		{"b", other, "", "a", other, ""},
		{"0x1p3", decimal, "", "1e3", integer, ""},
	} {
		f.Add(s.a, s.da, s.la, s.b, s.db, s.lb)
	}
	conds := []sparql.OrderCond{{Expr: &sparql.ExprVar{Name: "x"}}}
	lit := func(lex string, dt uint8, lang string) rdf.Term {
		if lang != "" {
			return rdf.NewLangLiteral(lex, lang)
		}
		return rdf.Term{Kind: rdf.KindLiteral, Value: lex, Datatype: datatypes[int(dt)%ndatatypes]}
	}
	f.Fuzz(func(t *testing.T, a string, da uint8, la, b string, db uint8, lb string) {
		x, y := lit(a, da, la), lit(b, db, lb)
		px, py := rdf.SortPrefix(x), rdf.SortPrefix(y)
		if !rdf.SamePrefixClass(px, py) || px == py {
			return
		}
		if px > py {
			x, y = y, x
		}
		kx := reference.OrderKeyOf(conds, sparql.Binding{"x": x})
		ky := reference.OrderKeyOf(conds, sparql.Binding{"x": y})
		if c := sparql.CompareOrderKeys(conds, kx, ky); c >= 0 {
			t.Fatalf("prefix %#x < %#x, but ORDER BY compares %v to %v as %d", min(px, py), max(px, py), x, y, c)
		}
	})
}
