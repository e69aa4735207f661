package results

import (
	"encoding/xml"
	"errors"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		formatParam, accept string
		want                Format
		wantErr             bool
	}{
		{"", "", JSON, false},
		{"csv", "", CSV, false},
		{"TSV", "", TSV, false},                                // parameter is case-insensitive
		{"xml", "application/sparql-results+json", XML, false}, // format= beats Accept
		{"turtle", "", JSON, true},                             // unknown format is an error, not a fallback
		{"", "text/csv", CSV, false},
		{"", "text/tab-separated-values", TSV, false},
		{"", "application/sparql-results+xml", XML, false},
		{"", "application/json", JSON, false},
		{"", "text/xml;q=0.9", XML, false},      // q-values are stripped
		{"", "image/png, text/csv", CSV, false}, // first recognized range wins
		{"", "text/csv, application/sparql-results+xml", CSV, false},
		{"", "*/*", JSON, false}, // wildcard falls through to the default
		{"", "application/pdf", JSON, false},
		{"ndjson", "", NDJSON, false},                               // a format like the other four, by name…
		{"", "application/x-ndjson;q=0.5, text/csv", NDJSON, false}, // …and by media type
	} {
		got, err := Negotiate(tc.formatParam, tc.accept, JSON)
		if (err != nil) != tc.wantErr {
			t.Fatalf("Negotiate(%q, %q): err = %v, wantErr = %v", tc.formatParam, tc.accept, err, tc.wantErr)
		}
		if err == nil && got != tc.want {
			t.Fatalf("Negotiate(%q, %q) = %v, want %v", tc.formatParam, tc.accept, got, tc.want)
		}
	}
}

// hazardRows is one row per serialization hazard: every character class
// that needs quoting or escaping in at least one of the formats.
var hazardRows = []sparql.Binding{
	{"a": rdf.NewLiteral(`say "hi"`), "b": rdf.NewIRI("http://ex/q")},
	{"a": rdf.NewLiteral("tab\there")},
	{"a": rdf.NewLiteral("line\nbreak")},
	{"a": rdf.NewLiteral("comma, separated")},
	{"a": rdf.NewLiteral("carriage\rreturn")},
	{"a": rdf.NewLiteral(`back\slash`)},
	{"a": rdf.NewLiteral("<xml> & 'entities'"), "b": rdf.NewBlank("anon")},
	{"a": rdf.NewLangLiteral("hallo", "de"), "b": rdf.NewInteger(42)},
	{"b": rdf.NewIRI("http://ex/unbound-a")},
}

func writeAll(t *testing.T, f Format, rows []sparql.Binding) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(f, &sb, []string{"a", "b"})
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatalf("%v: WriteRow: %v", f, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%v: Close: %v", f, err)
	}
	return sb.String()
}

func TestCSVEscaping(t *testing.T) {
	got := writeAll(t, CSV, hazardRows)
	want := "a,b\r\n" +
		"\"say \"\"hi\"\"\",http://ex/q\r\n" +
		"tab\there,\r\n" + // a bare tab needs no CSV quoting
		"\"line\nbreak\",\r\n" +
		"\"comma, separated\",\r\n" +
		"\"carriage\rreturn\",\r\n" + // lone CR preserved byte-for-byte
		"back\\slash,\r\n" +
		"<xml> & 'entities',_:anon\r\n" + // no CSV metacharacters: unquoted

		"hallo,42\r\n" + // plain values: no lang tag, no datatype
		",http://ex/unbound-a\r\n"
	if got != want {
		t.Fatalf("CSV document:\n got %q\nwant %q", got, want)
	}
}

func TestTSVEscaping(t *testing.T) {
	got := writeAll(t, TSV, hazardRows)
	want := "?a\t?b\n" +
		"\"say \\\"hi\\\"\"\t<http://ex/q>\n" +
		"\"tab\\there\"\t\n" +
		"\"line\\nbreak\"\t\n" +
		"\"comma, separated\"\t\n" +
		"\"carriage\\rreturn\"\t\n" +
		"\"back\\\\slash\"\t\n" +
		"\"<xml> & 'entities'\"\t_:anon\n" +
		"\"hallo\"@de\t\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n" +
		"\t<http://ex/unbound-a>\n"
	if got != want {
		t.Fatalf("TSV document:\n got %q\nwant %q", got, want)
	}
}

func TestXMLEscaping(t *testing.T) {
	got := writeAll(t, XML, hazardRows)
	// the document must stay well-formed XML despite markup characters in
	// the values …
	dec := xml.NewDecoder(strings.NewReader(got))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("XML document not well-formed: %v\n%s", err, got)
		}
	}
	// … with entities escaped, not embedded raw
	for _, frag := range []string{
		"<literal>&lt;xml&gt; &amp; &#39;entities&#39;</literal>",
		`<literal xml:lang="de">hallo</literal>`,
		`<literal datatype="http://www.w3.org/2001/XMLSchema#integer">42</literal>`,
		"<bnode>anon</bnode>",
		"<uri>http://ex/q</uri>",
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("XML document missing %q:\n%s", frag, got)
		}
	}
	if !strings.HasSuffix(got, "</results></sparql>\n") {
		t.Fatalf("XML document not terminated: %q", got)
	}
}

func TestWriteAsk(t *testing.T) {
	for _, tc := range []struct {
		f    Format
		want string
	}{
		{CSV, "boolean\r\ntrue\r\n"},
		{TSV, "?boolean\ntrue\n"},
		{XML, xmlProlog + "<head/><boolean>true</boolean></sparql>\n"},
		{NDJSON, `{"ask":true,"boolean":true}` + "\n"},
	} {
		var sb strings.Builder
		if err := WriteAsk(tc.f, &sb, true); err != nil {
			t.Fatalf("%v: %v", tc.f, err)
		}
		if sb.String() != tc.want {
			t.Fatalf("%v ASK document = %q, want %q", tc.f, sb.String(), tc.want)
		}
	}
	var sb strings.Builder
	if err := WriteAsk(JSON, &sb, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "false") {
		t.Fatalf("JSON ASK document = %q", sb.String())
	}
}

// failAfter errors every Write once n bytes have passed through — the
// io-level failure a hung-up client produces.
type failAfter struct {
	n       int
	written int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written >= f.n {
		return 0, errSink
	}
	f.written += len(p)
	return len(p), nil
}

// TestWriterSinkFailureSticks: once the underlying writer fails, every
// subsequent WriteRow and Close must report the error rather than
// silently dropping rows — the handler relies on the error to stop
// consuming the evaluation.
func TestWriterSinkFailureSticks(t *testing.T) {
	for _, f := range []Format{JSON, CSV, TSV, XML, NDJSON} {
		sink := &failAfter{n: 1} // the head goes through, the first row fails
		w := NewWriter(f, sink, []string{"a"})
		row := sparql.Binding{"a": rdf.NewLiteral("x")}
		if err := w.WriteRow(row); !errors.Is(err, errSink) {
			t.Fatalf("%v: first WriteRow after sink failure = %v, want errSink", f, err)
		}
		if err := w.WriteRow(row); !errors.Is(err, errSink) {
			t.Fatalf("%v: second WriteRow did not stick: %v", f, err)
		}
		if err := w.Close(); !errors.Is(err, errSink) {
			t.Fatalf("%v: Close after sink failure = %v, want errSink", f, err)
		}
	}
}

// TestFormatNamesRoundTrip: every format negotiates back from its own
// name and media type (NDJSON used to be a sentinel outside the enum
// whose String and ContentType answered "json").
func TestFormatNamesRoundTrip(t *testing.T) {
	for _, f := range []Format{JSON, CSV, TSV, XML, NDJSON} {
		if got, err := Negotiate(f.String(), "", -1); err != nil || got != f {
			t.Errorf("Negotiate(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
		if got, _ := Negotiate("", f.ContentType(), -1); got != f {
			t.Errorf("Negotiate(Accept: %q) = %v, want %v", f.ContentType(), got, f)
		}
	}
}

// TestServeOffHTTP: `hbold query -stream` serves through the same loop
// onto a plain writer — the NDJSON bytes /api/query sends, a failed
// stream reported in-band and through the returned error, and no
// connection to abort for the terminator-less formats.
func TestServeOffHTTP(t *testing.T) {
	rows := &sparql.Result{Vars: []string{"a"}, Rows: []sparql.Binding{{"a": rdf.NewIRI("http://ex/1")}, {"a": rdf.NewInteger(2)}}}
	var sb strings.Builder
	if n, err := Serve(&sb, NDJSON, sparql.ResultSeq(rows)); n != 2 || err != nil {
		t.Fatalf("Serve = %d, %v", n, err)
	}
	want := `{"vars":["a"]}` + "\n" +
		`{"a":{"type":"uri","value":"http://ex/1"}}` + "\n" +
		`{"a":{"type":"literal","value":"2","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}` + "\n"
	if sb.String() != want {
		t.Fatalf("NDJSON document:\n got %q\nwant %q", sb.String(), want)
	}

	broken := errors.New("source died")
	failing := func() *sparql.RowSeq {
		err := broken
		return sparql.NewRowSeq([]string{"a"}, func(yield func([]rdf.Term) bool) { yield([]rdf.Term{rows.Rows[0]["a"]}) }, &err)
	}
	sb.Reset()
	if n, err := Serve(&sb, NDJSON, failing()); n != 1 || !errors.Is(err, broken) || !strings.HasSuffix(sb.String(), `{"error":"source died"}`+"\n") {
		t.Fatalf("failed NDJSON stream: %d rows, err %v, document %q", n, err, sb.String())
	}
	sb.Reset()
	if n, err := Serve(&sb, CSV, failing()); n != 1 || !errors.Is(err, broken) {
		t.Fatalf("failed CSV stream off HTTP: %d rows, err %v; want the error returned", n, err)
	}
	if _, err := Serve(&sb, JSON, sparql.ResultSeq(&sparql.Result{Graph: rdf.NewGraph()})); !errors.Is(err, ErrConstruct) {
		t.Fatalf("CONSTRUCT result: err %v, want ErrConstruct", err)
	}
}
