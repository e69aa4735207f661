// Package results is the response side of SPARQL over HTTP: it
// serializes query results in the W3C interchange formats — SPARQL 1.1
// Query Results JSON, CSV, TSV and XML — and in NDJSON (one line per
// row, the streaming-native framing) through one streaming Writer,
// negotiates which of them a protocol request gets, and owns
// the one loop (Serve) that turns a row stream into bytes on the wire
// for every surface: sparqld, /api/query and `hbold query -stream`.
// Every writer emits row-by-row with O(row) buffering, so rows are
// flushed while the engine is still producing them regardless of the
// format the client asked for.
//
// Mid-stream failure contract: a writer never buffers the document, so a
// producer that dies after some rows leaves a truncated document behind.
// NDJSON reports it in-band (a final {"error": ...} line); for JSON and
// XML the document never closes; CSV and TSV have no terminator, so
// Serve aborts the connection instead of finishing the response — a
// short-but-valid-looking table must never masquerade as a complete
// result.
package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Format identifies one of the supported result serializations.
type Format int

const (
	JSON   Format = iota // SPARQL 1.1 Query Results JSON Format
	CSV                  // SPARQL 1.1 Query Results CSV Format
	TSV                  // SPARQL 1.1 Query Results TSV Format
	XML                  // SPARQL Query Results XML Format
	NDJSON               // a {"vars": [...]} head line, then one SPARQL-JSON binding object per line
)

// String returns the format's short name — the value the `format=` query
// parameter accepts.
func (f Format) String() string {
	switch f {
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	case XML:
		return "xml"
	case NDJSON:
		return "ndjson"
	default:
		return "json"
	}
}

// ContentType returns the media type the format is served as.
func (f Format) ContentType() string {
	switch f {
	case CSV:
		return "text/csv; charset=utf-8"
	case TSV:
		return "text/tab-separated-values; charset=utf-8"
	case XML:
		return "application/sparql-results+xml"
	case NDJSON:
		return "application/x-ndjson"
	default:
		return "application/sparql-results+json"
	}
}

// byName maps `format=` parameter values to formats.
var byName = map[string]Format{
	"json": JSON, "csv": CSV, "tsv": TSV, "xml": XML, "ndjson": NDJSON,
}

// byMIME maps Accept media ranges to formats.
var byMIME = map[string]Format{
	"application/sparql-results+json": JSON,
	"application/json":                JSON,
	"text/csv":                        CSV,
	"text/tab-separated-values":       TSV,
	"application/sparql-results+xml":  XML,
	"application/xml":                 XML,
	"text/xml":                        XML,
	"application/x-ndjson":            NDJSON,
}

// Negotiate picks the response format for a protocol request. An explicit
// `format=` parameter wins and must name a known format; otherwise the
// Accept header's media ranges are scanned in order and the first
// recognized one wins. With neither (or only unrecognized ranges, e.g.
// */*), def is returned — a client that doesn't care gets the endpoint's
// native format rather than a 406.
func Negotiate(formatParam, accept string, def Format) (Format, error) {
	if formatParam != "" {
		f, ok := byName[strings.ToLower(formatParam)]
		if !ok {
			return def, fmt.Errorf("results: unknown format %q (want json, csv, tsv, xml or ndjson)", formatParam)
		}
		return f, nil
	}
	for _, part := range strings.Split(accept, ",") {
		mr := part
		if i := strings.IndexByte(mr, ';'); i >= 0 {
			mr = mr[:i] // drop q-values and other parameters
		}
		if f, ok := byMIME[strings.ToLower(strings.TrimSpace(mr))]; ok {
			return f, nil
		}
	}
	return def, nil
}

// Writer emits one SELECT results document: the head is written on
// construction (held back, under Serve, until the first row or Close),
// each row is appended into one reused buffer and handed
// to the sink in a single Write, Close terminates the document (a no-op
// for the terminator-less CSV, TSV and NDJSON). The sink's first error
// sticks: every later call reports it.
type Writer struct {
	w    io.Writer
	f    Format
	vars []string
	enc  *sparql.JSONRowEncoder // JSON, NDJSON
	buf  []byte                 // the row being encoded
	row  []rdf.Term             // WriteRow's positional copy of a Binding
	head []byte                 // the document head while it is held back; nil once written
	rows int
	err  error
}

// NewWriter starts a SELECT results document in the given format.
func NewWriter(f Format, w io.Writer, vars []string) *Writer {
	rw := heldWriter(f, w, vars)
	rw.writeHead()
	return rw
}

// heldWriter is NewWriter with the head held back until the first row or
// Close writes it, so that a stream which fails before its first row has
// written nothing and can still be answered as a failed request.
func heldWriter(f Format, w io.Writer, vars []string) *Writer {
	var head []byte
	switch f {
	case NDJSON:
		return heldNDJSON(w, vars, map[string][]string{"vars": vars})
	case CSV:
		head = appendCSVHead(head, vars)
	case TSV:
		head = appendTSVHead(head, vars)
	case XML:
		head = appendXMLHead(head, vars)
	default:
		f = JSON
		names, _ := json.Marshal(vars) // a []string cannot fail to marshal
		head = append(append(append(head, `{"head":{"vars":`...), names...), `},"results":{"bindings":[`...)
	}
	return newWriter(f, w, vars, head, nil)
}

// NewNDJSONWriter starts an NDJSON results document whose first line is
// head — {"vars": [...]} through NewWriter; a caller with more to say
// up front (the federation's partial-result marker) passes its own.
func NewNDJSONWriter(w io.Writer, vars []string, head any) *Writer {
	rw := heldNDJSON(w, vars, head)
	rw.writeHead()
	return rw
}

func heldNDJSON(w io.Writer, vars []string, head any) *Writer {
	line, err := json.Marshal(head)
	return newWriter(NDJSON, w, vars, append(line, '\n'), err)
}

// newWriter returns a Writer whose head is still to be written.
func newWriter(f Format, w io.Writer, vars []string, head []byte, err error) *Writer {
	out := &Writer{w: w, f: f, vars: vars, head: head, err: err}
	if f == JSON || f == NDJSON {
		out.enc = sparql.NewJSONRowEncoder(vars)
	}
	return out
}

// writeHead writes a head no row has carried yet; its array becomes the
// row buffer.
func (w *Writer) writeHead() {
	if w.head == nil {
		return
	}
	if w.err == nil {
		_, w.err = w.w.Write(w.head)
	}
	w.buf, w.head = w.head[:0], nil
}

// WriteTerms appends one solution given as positional terms aligned with
// the head's variables, the zero Term where one is unbound — the form a
// RowSeq yields. The row is not retained.
func (w *Writer) WriteTerms(row []rdf.Term) error {
	if w.err != nil {
		return w.err
	}
	b := w.buf[:0]
	if w.head != nil { // a held-back head goes out with the first row
		b, w.head = w.head, nil
	}
	switch w.f {
	case JSON:
		if w.rows > 0 {
			b = append(b, ',')
		}
		b = w.enc.AppendRow(b, row)
	case NDJSON:
		b = append(w.enc.AppendRow(b, row), '\n')
	case CSV:
		b = appendCSVRow(b, row)
	case TSV:
		b = appendTSVRow(b, row)
	case XML:
		b = appendXMLRow(b, w.vars, row)
	}
	w.rows++
	w.buf = b
	_, w.err = w.w.Write(b)
	return w.err
}

// WriteRow appends one solution given as a Binding; a key outside the
// head has no column and is dropped.
func (w *Writer) WriteRow(b sparql.Binding) error {
	if w.row == nil {
		w.row = make([]rdf.Term, len(w.vars))
	}
	for i, v := range w.vars {
		w.row[i] = b[v]
	}
	return w.WriteTerms(w.row)
}

// Close terminates the document. An unterminated JSON or XML document
// (Close never called, e.g. because the producer died mid-stream) is how
// a peer detects a broken stream: it fails to parse to completion.
func (w *Writer) Close() error {
	w.writeHead()
	if w.err == nil && w.f == JSON {
		_, w.err = io.WriteString(w.w, "]}}")
	}
	if w.err == nil && w.f == XML {
		_, w.err = io.WriteString(w.w, "</results></sparql>\n")
	}
	return w.err
}

// WriteAsk writes a complete ASK results document in the given format.
// The CSV/TSV encodings follow the common single-cell convention (the
// W3C CSV/TSV format documents only cover SELECT).
func WriteAsk(f Format, w io.Writer, value bool) error {
	switch f {
	case CSV:
		_, err := fmt.Fprintf(w, "boolean\r\n%v\r\n", value)
		return err
	case TSV:
		_, err := fmt.Fprintf(w, "?boolean\n%v\n", value)
		return err
	case XML:
		_, err := fmt.Fprintf(w, "%s<head/><boolean>%v</boolean></sparql>\n", xmlProlog, value)
		return err
	case NDJSON:
		return json.NewEncoder(w).Encode(map[string]bool{"ask": true, "boolean": value})
	default:
		return sparql.WriteAskJSON(w, value)
	}
}

// flushEvery is the one flush cadence of every results surface: the
// first row is flushed the moment it exists (a consumer sees it while
// the query still runs, however slowly later rows trickle), then every
// flushEvery-th — per-row flushing would cost a chunked write per row.
const flushEvery = 64

// ErrConstruct is Serve's refusal of a CONSTRUCT result: it is a graph,
// not a row stream, and answering with a convincingly empty SELECT
// document would be a lie. HTTP callers answer 400.
var ErrConstruct = errors.New("CONSTRUCT is not supported on the results-serving surfaces; use SELECT or ASK")

// StatusError is WriteRows' report that a stream failed before any of
// its document went out and the HTTP request was answered whole with
// Status, so the caller's access log can record that status.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Serve writes one query result to w in format f: the Content-Type
// header when w is an http.ResponseWriter, then the ASK document or the
// head, the rows and the terminator. Nothing has been written when it
// returns ErrConstruct. The head goes out with the first row, so a stream
// that fails before it is answered over HTTP as a failed request (500,
// reported as a *StatusError). See WriteRows for the rest of the contract.
func Serve(w io.Writer, f Format, rs *sparql.RowSeq) (rows int, err error) {
	if rs.Graph != nil {
		return 0, ErrConstruct
	}
	if hw, ok := w.(http.ResponseWriter); ok {
		hw.Header().Set("Content-Type", f.ContentType())
	}
	if rs.Ask {
		return 0, WriteAsk(f, w, rs.Boolean)
	}
	return WriteRows(w, heldWriter(f, w, rs.Vars), rs)
}

// WriteRows drains rs into rw — a Writer over w, its head written or
// held back — flushing w on the flushEvery cadence when it is an
// http.Flusher, and returns the rows written for the caller's logs. The
// query runs inside the range, on the caller's goroutine. A write error
// means the consumer went away: it ends the stream and is returned. A
// stream that fails while the head is still held back is answered over
// HTTP with a 500 and nothing else, and the error is a *StatusError. A
// stream that fails after rows were
// sent must not end
// as a well-formed short result: NDJSON gets a final {"error": ...}
// line, JSON and XML stay unterminated, and CSV/TSV, which have no
// terminator to withhold, abort the HTTP connection (off HTTP the
// returned error is the only signal). Either error is returned.
func WriteRows(w io.Writer, rw *Writer, rs *sparql.RowSeq) (rows int, err error) {
	flusher, _ := w.(http.Flusher)
	for row := range rs.Terms() {
		if err := rw.WriteTerms(row); err != nil {
			return rows, err
		}
		rows++
		if flusher != nil && (rows == 1 || rows%flushEvery == 0) {
			flusher.Flush()
		}
	}
	if err := rs.Err(); err != nil {
		if hw, ok := w.(http.ResponseWriter); ok && rw.head != nil {
			// nothing has gone out: the request fails whole
			http.Error(hw, err.Error(), http.StatusInternalServerError)
			return rows, &StatusError{http.StatusInternalServerError, err}
		}
		rw.writeHead()
		switch rw.f {
		case NDJSON:
			json.NewEncoder(rw.w).Encode(map[string]string{"error": err.Error()})
		case CSV, TSV:
			if _, ok := w.(http.ResponseWriter); ok {
				panic(http.ErrAbortHandler)
			}
		}
		return rows, err
	}
	return rows, rw.Close()
}
