package results

// Proof that the append-only encoders moved no byte: a differential (and
// fuzz) against the encoders they replaced — encoding/json over a map of
// terms, xml.EscapeText, the strings.Replacer behind TSV — the reader
// round trip, the conformance goldens served straight off the executor,
// and the gate that keeps serving's allocations constant in the row
// count.

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// refTerm and refRow are the encoder the JSON and NDJSON writers used
// to be: a map of terms handed to encoding/json.
type refTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

// term is the RDF term a cell decoded by encoding/json denotes; the zero
// Term for an absent cell.
func (rt refTerm) term() rdf.Term {
	switch rt.Type {
	case "uri":
		return rdf.NewIRI(rt.Value)
	case "bnode":
		return rdf.NewBlank(rt.Value)
	case "literal":
		if rt.Lang != "" {
			return rdf.NewLangLiteral(rt.Value, rt.Lang)
		}
		return rdf.NewTypedLiteral(rt.Value, rt.Datatype)
	}
	return rdf.Term{}
}

func refRow(t testing.TB, vars []string, row []rdf.Term) []byte {
	t.Helper()
	m := map[string]refTerm{}
	for i, term := range row {
		switch term.Kind {
		case rdf.KindInvalid:
		case rdf.KindIRI:
			m[vars[i]] = refTerm{Type: "uri", Value: term.Value}
		case rdf.KindBlank:
			m[vars[i]] = refTerm{Type: "bnode", Value: term.Value}
		default:
			m[vars[i]] = refTerm{Type: "literal", Value: term.Value, Datatype: term.Datatype, Lang: term.Lang}
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func document(f Format, vars []string, rows ...[]rdf.Term) string {
	var buf bytes.Buffer
	w := NewWriter(f, &buf, vars)
	for _, row := range rows {
		w.WriteTerms(row)
	}
	w.Close()
	return buf.String()
}

// fuzzTerm builds the cell a fuzz input describes: kind 0 is unbound.
func fuzzTerm(kind uint8, value, datatype, lang string) rdf.Term {
	switch kind % 4 {
	case 1:
		return rdf.Term{Kind: rdf.KindIRI, Value: value}
	case 2:
		return rdf.Term{Kind: rdf.KindLiteral, Value: value, Datatype: datatype, Lang: lang}
	case 3:
		return rdf.Term{Kind: rdf.KindBlank, Value: value}
	}
	return rdf.Term{}
}

func FuzzRowJSON(f *testing.F) {
	f.Add("s", "o", uint8(1), uint8(2), "http://ex/a", "plain", "", "")
	f.Add("x", "x", uint8(2), uint8(2), "same name twice", "same name twice", "", "en")
	f.Add("b", "a", uint8(3), uint8(0), "b0", "", "", "")
	f.Add("v<>&", "\xff", uint8(2), uint8(2), "<b>&amp;</b>", "bad \xc3\x28 utf8 \xff", "http://www.w3.org/2001/XMLSchema#integer", "")
	f.Add("ctl", "sep", uint8(2), uint8(2), "\x00\x01\b\f\n\r\t\x1f\x7f\"\\", "line para end�", "", "DE-ch")
	f.Add("", "é", uint8(2), uint8(1), "both", "http://ex/ü?q='x'", "http://ex/dt", "fr")
	f.Fuzz(func(t *testing.T, n0, n1 string, k0, k1 uint8, v0, v1, datatype, lang string) {
		vars := []string{n0, n1}
		row := []rdf.Term{fuzzTerm(k0, v0, datatype, lang), fuzzTerm(k1, v1, datatype, lang)}
		if n0 == n1 {
			row[1] = row[0] // one variable projected twice holds one value
		}
		want := refRow(t, vars, row)
		if got := sparql.NewJSONRowEncoder(vars).AppendRow(nil, row); !bytes.Equal(got, want) {
			t.Fatalf("row encoder:\n got %s\nwant %s", got, want)
		}
		if got := document(NDJSON, vars, row); !strings.HasSuffix(got, "\n"+string(want)+"\n") {
			t.Fatalf("NDJSON line:\n got %q\nwant %q", got, want)
		}

		// the document reads back to the same row (through encoding/json's
		// own decoding of what it would have written, where the input is
		// not valid UTF-8)
		var back map[string]refTerm
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		rr, err := sparql.NewJSONRowReader(strings.NewReader(document(JSON, vars, row, row)))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]rdf.Term, len(rr.Vars()))
		for i := 0; i < 2; i++ {
			if err := rr.Next(got); err != nil {
				t.Fatalf("read back row %d: %v", i, err)
			}
			for j, v := range rr.Vars() { // the names as encoding/json decodes them
				if want := back[v].term(); got[j] != want {
					t.Fatalf("read back row %d: ?%s = %v, want %v", i, v, got[j], want)
				}
			}
		}
		if err := rr.Next(got); err != io.EOF {
			t.Fatalf("after the last row: %v, want io.EOF", err)
		}

		// the other two hand-written escapers, against what they replaced
		for _, s := range []string{n0, v0, v1, datatype, lang} {
			var ref bytes.Buffer
			xml.EscapeText(&ref, []byte(s))
			if got := appendXMLText(nil, s); !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("appendXMLText(%q) = %q, xml.EscapeText writes %q", s, got, ref.Bytes())
			}
			want := `"` + strings.NewReplacer("\\", `\\`, "\t", `\t`, "\n", `\n`, "\r", `\r`, `"`, `\"`).Replace(s) + `"` + "\n"
			if got := appendTSVRow(nil, []rdf.Term{rdf.NewLiteral(s)}); string(got) != want {
				t.Fatalf("TSV literal %q = %q, want %q", s, got, want)
			}
		}
	})
}

// TestNDJSONMatchesEncodingJSON: every NDJSON line is what json.Encoder
// wrote for the row's map — head line, member order, escapes, omitted
// unbound cells and empty Datatype/Lang.
func TestNDJSONMatchesEncodingJSON(t *testing.T) {
	vars := []string{"z", "a", "m"}
	rows := [][]rdf.Term{
		{rdf.NewIRI("http://ex/<z>"), rdf.NewLangLiteral("hallo & tschüß", "de"), rdf.NewBlank("b1")},
		{{}, rdf.NewInteger(42), {}},
		{{}, {}, {}},
		{rdf.NewLiteral("tab\there \"quoted\" back\\slash\r\n"), rdf.NewLiteral(" \xff"), rdf.NewTypedLiteral("1.5", rdf.XSDDecimal)},
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.Encode(map[string][]string{"vars": vars})
	for _, row := range rows {
		want.Write(refRow(t, vars, row))
		want.WriteByte('\n')
	}
	if got := document(NDJSON, vars, rows...); got != want.String() {
		t.Fatalf("NDJSON document:\n got %q\nwant %q", got, want.String())
	}
}

// TestEscapeGoldensOffTheExecutor serves the conformance suite's
// fmt-escape query straight from Query.Stream — the executor's positional
// rows, not a materialized Result — and holds every format to the golden
// its pre-append writer produced.
func TestEscapeGoldensOffTheExecutor(t *testing.T) {
	const dir = "../../testsuite/testdata/"
	read := func(name string) string {
		raw, err := os.ReadFile(dir + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	g, err := turtle.Parse(read("data/escape.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	st := store.FromGraph(g)
	for _, f := range []Format{JSON, CSV, TSV, XML} {
		rs, err := sparql.StreamExec(context.Background(), st, read("queries/fmt-escape.rq"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if n, err := Serve(&buf, f, rs); n != 10 || err != nil {
			t.Fatalf("%v: served %d rows, err %v", f, n, err)
		}
		if want := read("expected/fmt-escape." + f.String()); buf.String() != want {
			t.Errorf("%v document moved:\n got %q\nwant %q", f, buf.String(), want)
		}
	}
}

// --- allocations ---

const (
	scanQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 2000`
	joinQuery = `SELECT ?s ?c ?o WHERE { ?s a ?c . ?s ?p ?o } LIMIT 200`
)

// allocStore is 800 typed subjects with a label, a number and a link
// each: every term kind a scan can project. (internal/synth imports this
// package through the endpoint server, so the corpus is built here.)
func allocStore() *store.Store {
	st := store.New()
	ex := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/%s/%d", kind, i)) }
	for i := 0; i < 800; i++ {
		s := ex("s", i)
		st.AddSPO(s, rdf.NewIRI(rdf.RDFType), ex("C", i%6))
		st.AddSPO(s, ex("p", 0), rdf.NewLangLiteral(fmt.Sprintf("étiquette <%d>", i), "fr"))
		st.AddSPO(s, ex("p", 1), rdf.NewInteger(int64(i)))
		st.AddSPO(s, ex("p", 2), ex("s", (i*7+1)%800))
		st.AddSPO(rdf.NewBlank(fmt.Sprintf("b%d", i)), ex("p", 3), s)
	}
	return st
}

var allFormats = []Format{JSON, NDJSON, CSV, TSV, XML}

// serve runs one query from text to bytes, as a handler does.
func serve(tb testing.TB, st store.Queryable, f Format, query string) int {
	rs, err := sparql.StreamExec(context.Background(), st, query)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := Serve(io.Discard, f, rs)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// stackProbe is a store whose index scans record whether writeRows (the
// loop under Serve and WriteRows) is on the stack of the goroutine that
// runs them.
type stackProbe struct {
	*store.Store
	scans, underWriteRows int
}

func (p *stackProbe) Snapshot() store.ReaderAPI { return probedReader{p.Store.Snapshot(), p} }

type probedReader struct {
	store.ReaderAPI
	p *stackProbe
}

func (r probedReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	pcs := make([]uintptr, 512)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	r.p.scans++
	for more := true; more; {
		var f runtime.Frame
		if f, more = frames.Next(); f.Function == "repro/internal/sparql/results.writeRows" {
			r.p.underWriteRows++
			break
		}
	}
	return r.ReaderAPI.Runs(pat, fn)
}

// TestServeRunsOnCallerGoroutine: a served query runs inside writeRows'
// range, on the caller's goroutine — every index scan of a join, in every
// format, has writeRows on its stack. A stream pulled through a coroutine
// runs the plan on a stack of its own.
func TestServeRunsOnCallerGoroutine(t *testing.T) {
	p := &stackProbe{Store: allocStore()}
	for _, f := range allFormats {
		if n := serve(t, p, f, joinQuery); n != 200 {
			t.Fatalf("%v: join served %d rows, want 200", f, n)
		}
	}
	if p.scans == 0 || p.underWriteRows != p.scans {
		t.Fatalf("%d of %d index scans ran under writeRows; want all", p.underWriteRows, p.scans)
	}
}

// TestServeAllocationsConstantInRows: what serving allocates belongs to
// the query (parse, plan, the stream's closures, the writer's one buffer), not to
// its rows — a 2000-row scan may not allocate more than a 200-row join
// plus a fixed slack, in any format.
func TestServeAllocationsConstantInRows(t *testing.T) {
	const slack = 40
	st := allocStore()
	for _, f := range allFormats {
		if n := serve(t, st, f, scanQuery); n != 2000 {
			t.Fatalf("scan served %d rows, want 2000", n)
		}
		if n := serve(t, st, f, joinQuery); n != 200 {
			t.Fatalf("join served %d rows, want 200", n)
		}
		scan := testing.AllocsPerRun(5, func() { serve(t, st, f, scanQuery) })
		join := testing.AllocsPerRun(5, func() { serve(t, st, f, joinQuery) })
		if scan > join+slack {
			t.Errorf("%v: a 2000-row scan allocates %.0f times, a 200-row join %.0f: serving allocates per row", f, scan, join)
		}
	}
}

func BenchmarkServe(b *testing.B) {
	st := allocStore()
	for _, f := range allFormats {
		b.Run(f.String(), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows += serve(b, st, f, scanQuery)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/row")
		})
	}
}
