// Package results is the response side of SPARQL over HTTP: it
// serializes query results in the W3C interchange formats — SPARQL 1.1
// Query Results JSON, CSV, TSV and XML — and in NDJSON (one line per
// row, the streaming-native framing) through one streaming Writer,
// negotiates which of them a protocol request gets, and owns
// the one loop (Serve) that turns a row stream into bytes on the wire
// for every surface: sparqld, /api/query and `hbold query -stream`.
// A Writer encodes row by row with O(row) buffering; Serve gathers the
// encoded bytes and writes them when writeChunk of them are pending, when
// the document ends, or when the oldest has waited maxLatency, so rows
// leave while the engine is still producing them, whatever the format
// the client asked for, in few large writes.
//
// Mid-stream failure contract: a writer never holds the whole document,
// so a producer that dies after some rows leaves a truncated document
// behind.
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
	"strconv"
	"strings"
	"sync"
	"time"

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
	return writeRows(w, heldWriter(f, w, rs.Vars), rs, true)
}

// WriteRows drains rs into rw — a Writer over w, its head written or
// held back — and returns the rows written for the caller's logs. The
// query runs inside the range, on the caller's goroutine. The encoded
// rows gather in one buffer (see gather) and reach w in writes of
// writeChunk bytes, at the end of the document, or when the oldest
// pending byte has waited maxLatency; the timer's write also flushes w
// when it is an http.Flusher. A write error means the consumer went
// away: it ends the stream and is returned. A stream that fails while the
// head is still held back is answered over HTTP with a 500 and nothing
// else, and the error is a *StatusError. A stream that fails after rows
// were gathered must not end as a well-formed short result: the pending rows
// go out, then NDJSON gets a final {"error": ...} line, JSON and XML stay
// unterminated, and CSV/TSV, which have no terminator to withhold, abort
// the HTTP connection (off HTTP the returned error is the only signal).
// Either error is returned. The response stays chunked: a caller may
// write more after WriteRows returns (the partial-result trailer).
func WriteRows(w io.Writer, rw *Writer, rs *sparql.RowSeq) (rows int, err error) {
	return writeRows(w, rw, rs, false)
}

// writeRows is WriteRows; with exact, the document is the whole response
// (Serve), and one that ends before anything was written goes out under
// a Content-Length.
func writeRows(w io.Writer, rw *Writer, rs *sparql.RowSeq, exact bool) (rows int, err error) {
	g := takeGather(w)
	defer putGather(g)
	rw.w = g
	defer func() { rw.w = w }()
	for row := range rs.Terms() {
		if err := rw.WriteTerms(row); err != nil {
			g.finish(false)
			return rows, err
		}
		rows++
	}
	if err := rs.Err(); err != nil {
		hw, onHTTP := w.(http.ResponseWriter)
		if onHTTP && rw.head != nil {
			// nothing has gone out or is pending: the request fails whole
			g.finish(false)
			http.Error(hw, err.Error(), http.StatusInternalServerError)
			return rows, &StatusError{http.StatusInternalServerError, err}
		}
		rw.writeHead()
		if rw.f == NDJSON {
			json.NewEncoder(g).Encode(map[string]string{"error": err.Error()})
		}
		g.finish(false)
		if onHTTP && (rw.f == CSV || rw.f == TSV) {
			// the gather's lock is released: the abort unwinds through
			// nothing that holds it
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		return rows, err
	}
	err = rw.Close()
	if ferr := g.finish(exact); err == nil {
		err = ferr
	}
	return rows, err
}

// writeChunk is the size of a gathered write. net/http frames every
// Write it cannot buffer as its own chunk behind a 4 KiB connection
// buffer, so a write per row (or per 2 KiB) costs a chunk header and a
// syscall each; 32 KiB makes a write a few syscalls' worth of payload
// and holds a typical answer (a point lookup, a top-k, a LIMIT 200 join)
// whole, which is then sent under a Content-Length in one write.
const writeChunk = 32 << 10

// maxLatency bounds how long an encoded byte may wait for the buffer to
// fill: a slow query's first rows still reach the client while it runs.
// 10 ms is below what a person watching rows arrive notices and far above
// the time to encode a chunk, so a fast answer never waits on it.
const maxLatency = 10 * time.Millisecond

// gather is the buffer between a served document and its sink. The row
// loop appends to it and writes it when it reaches writeChunk; a timer
// armed on the first pending byte writes and flushes it after maxLatency
// from its own goroutine. Both hold mu while they touch buf or w, and
// once the document has ended (done) the timer no longer touches w,
// which the caller may then use on its own. A panic of w in the timer's
// write (http.ErrAbortHandler is net/http's way to abort) is recovered
// there, where nothing else would, and raised again by finish on the row
// loop's goroutine, where net/http recovers it.
type gather struct {
	mu       sync.Mutex
	w        io.Writer
	buf      []byte
	timer    *time.Timer
	due      time.Time // when the oldest pending byte has waited maxLatency
	sent     bool      // bytes have reached w
	done     bool      // the document has ended
	err      error     // w's first error; sticky
	panicked any       // what w panicked with in the timer's write
}

// errPanicked is the sticky error of a gather whose sink panicked in the
// timer's write: the row loop stops at its next Write and finish raises
// the panic.
var errPanicked = errors.New("results: the response writer panicked")

// gathers pools the buffers and their timers: a fresh 32 KiB buffer per
// response is GC work in proportion to the requests served.
var gathers = sync.Pool{New: func() any {
	g := &gather{buf: make([]byte, 0, writeChunk+4<<10)}
	g.timer = time.AfterFunc(time.Hour, g.expire)
	g.timer.Stop()
	return g
}}

func takeGather(w io.Writer) *gather {
	g := gathers.Get().(*gather)
	g.mu.Lock()
	g.w, g.sent, g.done, g.err, g.panicked = w, false, false, nil, nil
	g.mu.Unlock()
	return g
}

// putGather pools g. A timer callback that is already past its Stop may
// still run; it finds the buffer empty or too young and does nothing.
func putGather(g *gather) {
	g.mu.Lock()
	g.w, g.buf, g.done, g.panicked = nil, g.buf[:0], true, nil
	if cap(g.buf) > 2*writeChunk { // one huge row does not stay pooled
		g.buf = make([]byte, 0, writeChunk+4<<10)
	}
	g.mu.Unlock()
	gathers.Put(g)
}

// Write appends p, arming the timer if p is the first pending byte, and
// writes the buffer once it holds writeChunk bytes.
func (g *gather) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return 0, g.err
	}
	if len(g.buf) == 0 {
		g.due = time.Now().Add(maxLatency)
		g.timer.Reset(maxLatency)
	}
	g.buf = append(g.buf, p...)
	if len(g.buf) >= writeChunk {
		g.writeOut()
	}
	return len(p), g.err
}

// writeOut hands the pending bytes to w in one Write; mu is held.
func (g *gather) writeOut() {
	if g.err == nil {
		_, g.err = g.w.Write(g.buf)
		g.sent = true
	}
	g.buf = g.buf[:0]
}

// expire is the timer's callback: it writes bytes that have waited
// maxLatency and flushes them to the client. A callback outrun by a
// write and a re-arm finds younger bytes and leaves them to the re-armed
// timer.
func (g *gather) expire() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done || len(g.buf) == 0 || time.Now().Before(g.due) {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			g.panicked, g.err = p, errPanicked
		}
	}()
	g.writeOut()
	if f, ok := g.w.(http.Flusher); ok && g.err == nil {
		f.Flush()
	}
}

// finish ends the document: the pending bytes go out in one Write — with
// exact, when nothing has been written before and w is an
// http.ResponseWriter, under a Content-Length that frames the whole
// response — and the timer lets go of w. A panic the timer recovered is
// raised here, on the row loop's goroutine.
func (g *gather) finish(exact bool) error {
	g.mu.Lock()
	defer g.mu.Unlock() // runs before the panic below leaves finish
	g.done = true
	g.timer.Stop()
	if g.panicked != nil {
		panic(g.panicked)
	}
	if len(g.buf) > 0 {
		if hw, ok := g.w.(http.ResponseWriter); ok && exact && !g.sent && g.err == nil {
			hw.Header().Set("Content-Length", strconv.Itoa(len(g.buf)))
		}
		g.writeOut()
	}
	return g.err
}
