package endpoint

// Mid-stream failure contract of the protocol handler: when the
// evaluation dies after rows have been sent, the response must be
// detectably broken — an unterminated document for JSON/XML, an aborted
// connection for the terminator-less CSV/TSV — never a clean short
// result a client would mistake for the complete answer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// cancelAfterBytes cancels the request context once n response bytes
// have been written: the evaluation keeps failing mid-stream while the
// client connection stays healthy — the opposite of a client hang-up.
// It counts bytes, not writes, because the handler gathers rows into a
// few large writes.
type cancelAfterBytes struct {
	http.ResponseWriter
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfterBytes) Write(p []byte) (int, error) {
	if c.left > 0 {
		if c.left -= len(p); c.left <= 0 {
			c.cancel()
		}
	}
	return c.ResponseWriter.Write(p)
}

func (c *cancelAfterBytes) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// serveDyingMidStream exposes a large store through a handler whose
// evaluation is killed after a few rows have been written.
func serveDyingMidStream(t *testing.T) *httptest.Server {
	t.Helper()
	g := rdf.NewGraph()
	for i := 0; i < 5000; i++ {
		g.AddSPO(
			rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i%7)),
			rdf.NewInteger(int64(i)),
		)
	}
	st := store.FromGraph(g)
	h := &Handler{Store: st}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		// the whole answer is many 32 KiB writes; cancelling once the first
		// bytes are out means headers and a partial table have already reached
		// the client when the evaluation dies
		h.ServeHTTP(&cancelAfterBytes{ResponseWriter: w, cancel: cancel, left: 1}, r.WithContext(ctx))
	}))
	t.Cleanup(srv.Close)
	return srv
}

const midStreamQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

func TestMidStreamErrorLeavesJSONUnterminated(t *testing.T) {
	srv := serveDyingMidStream(t)
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(midStreamQuery) + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v (JSON responses end cleanly; the document itself is the signal)", err)
	}
	if !strings.Contains(string(body), `"bindings"`) {
		t.Fatalf("no rows before the failure; body: %.200s", body)
	}
	if json.Valid(body) {
		t.Fatalf("mid-stream failure produced a complete JSON document — a short result masquerading as the full answer:\n%.300s", body)
	}
}

func TestMidStreamErrorLeavesXMLUnterminated(t *testing.T) {
	srv := serveDyingMidStream(t)
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(midStreamQuery) + "&format=xml")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if !strings.Contains(string(body), "<result>") {
		t.Fatalf("no rows before the failure; body: %.200s", body)
	}
	if strings.Contains(string(body), "</sparql>") {
		t.Fatalf("mid-stream failure produced a terminated XML document:\n%.300s", body)
	}
}

func TestMidStreamErrorAbortsTabular(t *testing.T) {
	for _, format := range []string{"csv", "tsv"} {
		t.Run(format, func(t *testing.T) {
			srv := serveDyingMidStream(t)
			resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(midStreamQuery) + "&format=" + format)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			// CSV/TSV have no terminator, so a clean close would make the
			// truncated table look complete; the handler must abort the
			// connection and the read must error
			if _, err := io.ReadAll(resp.Body); err == nil {
				t.Fatalf("%s body read completed cleanly after a mid-stream failure; want an aborted connection", format)
			}
		})
	}
}
