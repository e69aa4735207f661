package results

// Serve's write rule over real HTTP: encoded rows reach the
// ResponseWriter in writes of writeChunk bytes, at the end of the
// document, or after maxLatency — never one write per row.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// countingWriter counts the Write and Flush calls a handler makes on
// its ResponseWriter.
type countingWriter struct {
	http.ResponseWriter
	writes, flushes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseWriter.Write(p)
}

func (c *countingWriter) Flush() {
	c.flushes++
	c.ResponseWriter.(http.Flusher).Flush()
}

// served is one response of a coalescing server: its body, the
// Content-Length it carried (-1 for none) and the calls its handler made.
type served struct {
	body            []byte
	length          int64
	chunked         bool
	writes, flushes int
}

// serveCounted runs query through Serve over HTTP, format f.
func serveCounted(t *testing.T, f Format, query string) served {
	t.Helper()
	st := allocStore()
	calls := make(chan *countingWriter, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		defer func() { calls <- cw }()
		rs, err := sparql.StreamExec(context.Background(), st, query)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := Serve(cw, f, rs); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cw := <-calls
	return served{body, resp.ContentLength, len(resp.TransferEncoding) > 0, cw.writes, cw.flushes}
}

// TestServeCoalescesWrites: an answer that fits one chunk is one Write
// under a Content-Length, with no Flush and no chunk framing; a 2000-row
// scan takes one Write per writeChunk bytes and one for the rest. Only
// the maxLatency timer flushes, and each of its writes is counted
// against it: a stall of the test machine can fire it, a cadence of its
// own cannot.
func TestServeCoalescesWrites(t *testing.T) {
	for _, f := range allFormats {
		t.Run(f.String(), func(t *testing.T) {
			var small served
			for try := 0; try < 5; try++ { // retried only when the timer fired
				if small = serveCounted(t, f, `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 20`); small.flushes == 0 {
					break
				}
			}
			if small.writes != 1 || small.flushes != 0 {
				t.Errorf("20 rows (%d bytes): %d writes, %d flushes; want one write and no flush", len(small.body), small.writes, small.flushes)
			}
			if small.length != int64(len(small.body)) || small.chunked {
				t.Errorf("20 rows (%d bytes): Content-Length %d, chunked %v; want the body's length, unchunked", len(small.body), small.length, small.chunked)
			}

			scan := serveCounted(t, f, scanQuery)
			chunks := (len(scan.body) + writeChunk - 1) / writeChunk
			if chunks < 2 {
				t.Fatalf("the scan is %d bytes: not past one chunk", len(scan.body))
			}
			if scan.writes > chunks+1+scan.flushes {
				t.Errorf("2000 rows (%d bytes, %d chunks): %d writes with %d latency flushes; want at most %d", len(scan.body), chunks, scan.writes, scan.flushes, chunks+1+scan.flushes)
			}
			if scan.length != -1 || !scan.chunked {
				t.Errorf("2000 rows: Content-Length %s, chunked %v; a document past one chunk is sent chunked", strconv.FormatInt(scan.length, 10), scan.chunked)
			}
		})
	}
}

// recordingSink keeps what it is written and counts the writes.
type recordingSink struct {
	buf    []byte
	writes int
}

func (s *recordingSink) Write(p []byte) (int, error) {
	s.writes++
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// TestServeTimerAndRowLoopShareTheBuffer: a producer that pauses between
// rows leaves the latency timer writing from its own goroutine while the
// row loop appends; the document still comes out byte for byte, and it
// left before it ended although it never filled a chunk.
func TestServeTimerAndRowLoopShareTheBuffer(t *testing.T) {
	const n, pauses = 200, 10
	rows := func(pause time.Duration) *sparql.RowSeq {
		return sparql.NewRowSeq([]string{"i"}, func(yield func([]rdf.Term) bool) {
			for i := range n {
				if i%(n/pauses) == n/pauses-1 {
					time.Sleep(pause)
				}
				if !yield([]rdf.Term{rdf.NewInteger(int64(i))}) {
					return
				}
			}
		}, new(error))
	}
	for _, f := range allFormats {
		var want, got recordingSink
		if _, err := Serve(&want, f, rows(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := Serve(&got, f, rows(5*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if string(got.buf) != string(want.buf) {
			t.Fatalf("%v: paced document differs:\n got %q\nwant %q", f, got.buf, want.buf)
		}
		if len(want.buf) >= writeChunk || want.writes != 1 || got.writes < 2 {
			t.Errorf("%v: %d bytes in %d writes unpaced, %d paced; want one write, and more once the timer has fired", f, len(want.buf), want.writes, got.writes)
		}
	}
}

// abortingSink panics with http.ErrAbortHandler on its first Write, as a
// ResponseWriter wrapper aborts a response, and records whether the row
// producer had finished by then.
type abortingSink struct {
	produced      atomic.Bool
	writes, early atomic.Int32
}

func (s *abortingSink) Write(p []byte) (int, error) {
	if !s.produced.Load() {
		s.early.Add(1)
	}
	s.writes.Add(1)
	panic(http.ErrAbortHandler)
}

// TestServeTimerWriteAbortReachesCaller: a sink that panics with
// http.ErrAbortHandler in the latency timer's write, off the caller's
// goroutine, must not take the process down; Serve raises the panic on
// the caller's goroutine, where net/http recovers it.
func TestServeTimerWriteAbortReachesCaller(t *testing.T) {
	for _, f := range allFormats {
		sink := new(abortingSink)
		rows := sparql.NewRowSeq([]string{"i"}, func(yield func([]rdf.Term) bool) {
			defer sink.produced.Store(true)
			for i := range 20 {
				if i == 1 {
					time.Sleep(5 * maxLatency) // the timer writes row 0 meanwhile
				}
				if !yield([]rdf.Term{rdf.NewInteger(int64(i))}) {
					return
				}
			}
		}, new(error))
		var raised any
		func() {
			defer func() { raised = recover() }()
			Serve(sink, f, rows)
		}()
		if raised != http.ErrAbortHandler {
			t.Errorf("%v: Serve raised %v; want http.ErrAbortHandler", f, raised)
		}
		if sink.writes.Load() != 1 || sink.early.Load() != 1 {
			t.Errorf("%v: %d writes, %d of them before the rows ended; want the timer's one write", f, sink.writes.Load(), sink.early.Load())
		}
	}
}
