package server

// The SPARQL-over-HTTP contract, asserted once for both mounts: sparqld's
// endpoint.Handler and the presentation layer's /api/query serve results
// through the same loop (results.Serve) and read updates through the
// same reader (endpoint.ServeUpdate), so every row of these tables must
// come out the same on either.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/update"
)

// steered is a store whose scans a test can steer from outside: hold a
// scan before its second triple, or kill the request's context before
// its n-th.
type steered struct {
	*store.Store
	mu      sync.Mutex
	hold    chan struct{}      // non-nil: a scan waits for it to close before handing out triple 2
	failAt  int                // > 0: the request's context is cancelled before triple failAt is handed out
	request context.Context    // of the request in flight
	cancel  context.CancelFunc // cancels it
	scanned int                // triples the last scan handed out
}

func (s *steered) Snapshot() store.ReaderAPI {
	return &steeredReader{ReaderAPI: s.Store.Snapshot(), st: s}
}

type steeredReader struct {
	store.ReaderAPI
	st *steered
	n  int
}

func (r *steeredReader) MatchIDs(pat store.IDPattern, fn func(s, p, o store.ID) bool) bool {
	return r.ReaderAPI.MatchIDs(pat, func(s, p, o store.ID) bool {
		r.n++
		r.st.mu.Lock()
		hold, failAt, cancel := r.st.hold, r.st.failAt, r.st.cancel
		r.st.scanned = r.n
		r.st.mu.Unlock()
		if r.n == 2 && hold != nil {
			<-hold
		}
		if r.n == failAt {
			cancel()
		}
		return fn(s, p, o)
	})
}

// plan sets up the next request's steering and returns the release of
// its hold (idempotent; a no-op without one).
func (s *steered) plan(hold bool, failAt int) (release func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hold, s.failAt, s.scanned = nil, failAt, 0
	if !hold {
		return func() {}
	}
	ch := make(chan struct{})
	s.hold = ch
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// mount serves h, handing every request's context to the steering and
// signalling on returned (never blocking: a test that does not listen
// leaves one signal behind) when the handler is done with one.
func (s *steered) mount(t *testing.T, h http.Handler, returned chan<- struct{}) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		s.mu.Lock()
		s.request, s.cancel = ctx, cancel
		s.mu.Unlock()
		defer func() {
			select {
			case returned <- struct{}{}:
			default:
			}
		}()
		h.ServeHTTP(w, r.WithContext(ctx))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

const servedRows = 150 // crosses the 64-row flush cadence twice

// served is one steered store of servedRows triples served twice: as a
// protocol endpoint and as a dataset of the presentation layer.
type served struct {
	*steered
	query    map[string]string // mount name → URL prefix a query is appended to
	update   map[string]string // mount name → URL an update is POSTed to
	returned chan struct{}     // signalled when a handler is done with a request
}

func bothMounts(t *testing.T) *served {
	t.Helper()
	be := store.New()
	for i := 0; i < servedRows; i++ {
		be.AddSPO(rdf.NewIRI(fmt.Sprintf("http://ex/s%04d", i)), rdf.NewIRI("http://ex/p"), rdf.NewInteger(int64(i)))
	}
	m := &served{steered: &steered{Store: be}, returned: make(chan struct{}, 1)}
	h := &endpoint.Handler{Store: m.steered, Update: func(ctx context.Context, text string) (int, int, error) {
		d, err := update.ApplyText(ctx, be, text)
		if err != nil {
			return 0, 0, err
		}
		return len(d.Added), len(d.Removed), nil
	}}
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	t.Cleanup(tool.Close)
	tool.Connect(dsURL, endpoint.LocalClient{Store: m.steered})
	sparqld, serve := m.mount(t, h, m.returned), m.mount(t, New(tool), m.returned)
	ds := url.QueryEscape(dsURL)
	m.query = map[string]string{"sparqld": sparqld + "/?query=", "/api/query": serve + "/api/query?dataset=" + ds + "&sparql="}
	m.update = map[string]string{"sparqld": sparqld + "/", "/api/update": serve + "/api/update?dataset=" + ds}
	return m
}

// readUntil reads body into buf until buf contains marker, failing the
// test when the body ends or stalls first.
func readUntil(t *testing.T, body io.Reader, buf *bytes.Buffer, marker, why string) {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		chunk := make([]byte, 4096)
		for !bytes.Contains(buf.Bytes(), []byte(marker)) {
			n, err := body.Read(chunk)
			buf.Write(chunk[:n])
			if err != nil {
				got <- err
				return
			}
		}
		got <- nil
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("%s: body ended with %v after %q", why, err, buf.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: nothing of it in 5 s", why)
	}
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not within 5 s", what)
	}
}

// rowsIn counts the data rows of a (possibly truncated) results body.
func rowsIn(f results.Format, body string) int {
	switch f {
	case results.CSV:
		return strings.Count(body, "\r\n") - 1
	case results.TSV:
		return strings.Count(body, "\n") - 1
	case results.XML:
		return strings.Count(body, "<result>")
	default: // one "s" binding per row in both JSON framings
		return strings.Count(body, `"s":{`)
	}
}

const xmlHead = `<?xml version="1.0"?>` + "\n" + `<sparql xmlns="http://www.w3.org/2005/sparql-results#">`

func TestOneServingLoopThroughBothMounts(t *testing.T) {
	st := bothMounts(t)
	mounts, returned := st.query, st.returned
	const scan = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	const firstRow = "http://ex/s0000"
	for _, tc := range []struct {
		f          results.Format
		ask, empty string // the exact documents: the bench's oracle and CRC cache read these bytes
		terminator string
	}{
		{results.JSON, `{"head":{},"boolean":true}`, `{"head":{"vars":["s"]},"results":{"bindings":[]}}`, "]}}"},
		{results.CSV, "boolean\r\ntrue\r\n", "s\r\n", "\r\n"},
		{results.TSV, "?boolean\ntrue\n", "?s\n", "\n"},
		{results.XML, xmlHead + "<head/><boolean>true</boolean></sparql>\n", xmlHead + `<head><variable name="s"/></head><results></results></sparql>` + "\n", "</results></sparql>\n"},
		{results.NDJSON, `{"ask":true,"boolean":true}` + "\n", `{"vars":["s"]}` + "\n", "}}\n"},
	} {
		get := func(t *testing.T, mount, query string) *http.Response {
			t.Helper()
			resp, err := http.Get(mounts[mount] + url.QueryEscape(query) + "&format=" + tc.f.String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { resp.Body.Close() })
			if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != tc.f.ContentType() {
				t.Fatalf("status %d, Content-Type %q; want 200 %q", resp.StatusCode, resp.Header.Get("Content-Type"), tc.f.ContentType())
			}
			return resp
		}
		whole := func(t *testing.T, mount, query string) string {
			t.Helper()
			body, err := io.ReadAll(get(t, mount, query).Body)
			if err != nil {
				t.Fatal(err)
			}
			await(t, returned, "handler return")
			return string(body)
		}
		complete := map[string]string{}
		for mount := range mounts {
			// The scan is held before its second triple until the client has
			// read the first row: one flush after row one, whatever the mount.
			t.Run(fmt.Sprintf("%v/%s/complete, first row early", tc.f, mount), func(t *testing.T) {
				release := st.plan(true, 0)
				defer release()
				resp := get(t, mount, scan)
				var body bytes.Buffer
				readUntil(t, resp.Body, &body, firstRow, "the first row of a result held before its second")
				select {
				case <-returned:
					t.Fatal("the handler returned while its scan was held")
				default:
				}
				release()
				if _, err := body.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				await(t, returned, "handler return")
				if n := rowsIn(tc.f, body.String()); n != servedRows || !strings.HasSuffix(body.String(), tc.terminator) {
					t.Fatalf("%d rows ending %q, want %d ending %q", n, body.String()[body.Len()-20:], servedRows, tc.terminator)
				}
				if tc.f == results.JSON && !json.Valid(body.Bytes()) {
					t.Fatalf("not a JSON document: %.200s", body.String())
				}
				complete[mount] = body.String()
			})
			t.Run(fmt.Sprintf("%v/%s/empty", tc.f, mount), func(t *testing.T) {
				st.plan(false, 0)
				if got := whole(t, mount, `SELECT ?s WHERE { ?s <http://ex/none> ?o }`); got != tc.empty {
					t.Fatalf("got %q, want %q", got, tc.empty)
				}
			})
			t.Run(fmt.Sprintf("%v/%s/ASK", tc.f, mount), func(t *testing.T) {
				st.plan(false, 0)
				if got := whole(t, mount, `ASK { ?s <http://ex/p> ?o }`); got != tc.ask {
					t.Fatalf("got %q, want %q", got, tc.ask)
				}
			})
			// the evaluation dies with 70 rows out and the connection healthy:
			// the response must not read as a complete 70-row result
			t.Run(fmt.Sprintf("%v/%s/fails after 70 rows", tc.f, mount), func(t *testing.T) {
				st.plan(false, 71)
				body, err := io.ReadAll(get(t, mount, scan).Body)
				await(t, returned, "handler return")
				got := string(body)
				switch tc.f {
				case results.CSV, results.TSV:
					if err == nil {
						t.Fatalf("the body read completed cleanly (%d rows); want an aborted connection", rowsIn(tc.f, got))
					}
					return
				case results.NDJSON:
					lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
					var last struct{ Error string }
					if json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || !strings.Contains(last.Error, "context canceled") {
						t.Fatalf("last line %q, want the error line", lines[len(lines)-1])
					}
				case results.JSON:
					if json.Valid(body) {
						t.Fatal("a complete JSON document")
					}
				case results.XML:
					if strings.Contains(got, "</sparql>") {
						t.Fatal("a terminated XML document")
					}
				}
				if err != nil || rowsIn(tc.f, got) != 70 {
					t.Fatalf("%d rows, read error %v; want the 70 rows sent before the failure and a clean close", rowsIn(tc.f, got), err)
				}
			})
			// the client reads row one and goes away: the evaluation is
			// cancelled through the request context, not run to the end
			t.Run(fmt.Sprintf("%v/%s/client hangs up", tc.f, mount), func(t *testing.T) {
				release := st.plan(true, 0)
				defer release()
				resp := get(t, mount, scan)
				var body bytes.Buffer
				readUntil(t, resp.Body, &body, firstRow, "the first row")
				resp.Body.Close()
				st.mu.Lock()
				request, cancel := st.request, st.cancel
				st.mu.Unlock()
				await(t, request.Done(), "the hang-up reaching the request context")
				// Done closes before the cancellation is handed down to the
				// contexts derived from request (the one the evaluation
				// polls), under request's lock; a second cancel waits for
				// that lock, so the scan is not released into the gap
				cancel()
				release()
				await(t, returned, "handler return")
				st.mu.Lock()
				defer st.mu.Unlock()
				if st.scanned > 3 {
					t.Fatalf("the scan handed out %d triples after the client left", st.scanned)
				}
			})
		}
		if complete["sparqld"] != complete["/api/query"] {
			t.Errorf("%v: the two mounts wrote different bytes for the same result", tc.f)
		}
	}
}

// TestSparqldNegotiatesNDJSON: NDJSON is a format like the other four,
// so the protocol endpoint offers it by Accept header too.
func TestSparqldNegotiatesNDJSON(t *testing.T) {
	st := bothMounts(t)
	mounts := st.query
	st.plan(false, 0)
	req, _ := http.NewRequest("GET", mounts["sparqld"]+url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/none> ?o }`), nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.Header.Get("Content-Type") != "application/x-ndjson" || string(body) != `{"vars":["s"]}`+"\n" {
		t.Fatalf("Content-Type %q, body %q", resp.Header.Get("Content-Type"), body)
	}
}

// TestConstructRefusedOnBothMounts: a CONSTRUCT has no row stream; both
// surfaces say so with a 400 instead of a convincingly empty SELECT
// document (sparqld answered 200 with one before it served through the
// shared loop).
func TestConstructRefusedOnBothMounts(t *testing.T) {
	st := bothMounts(t)
	st.plan(false, 0)
	for mount, prefix := range st.query {
		code, body, _ := get(t, prefix+url.QueryEscape(`CONSTRUCT { ?s <http://ex/q> ?o } WHERE { ?s <http://ex/p> ?o }`))
		if code != http.StatusBadRequest || !strings.Contains(body, "use SELECT or ASK") {
			t.Errorf("%s: %d %q, want 400 and the way out", mount, code, body)
		}
	}
}

// TestOversizedBodiesRefusedOnBothMounts: request bodies are read into
// memory, so they are capped: an update over endpoint.MaxBodyBytes is a
// 413 on either mount and leaves the store untouched, and so is an
// oversized query-builder model.
func TestOversizedBodiesRefusedOnBothMounts(t *testing.T) {
	st := bothMounts(t)
	huge := `INSERT DATA { <http://ex/big> <http://ex/p> "` + strings.Repeat("x", endpoint.MaxBodyBytes) + `" }`
	for mount, u := range st.update {
		for shape, post := range map[string]func() (*http.Response, error){
			"raw body": func() (*http.Response, error) {
				return http.Post(u, "application/sparql-update", strings.NewReader(huge))
			},
			"update= field": func() (*http.Response, error) { return http.PostForm(u, url.Values{"update": {huge}}) },
		} {
			resp, err := post()
			if err != nil {
				t.Fatalf("%s, %s: %v", mount, shape, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %s: status %d, want 413", mount, shape, resp.StatusCode)
			}
		}
		// the cap is on the body, not on updates: the same surface still works
		resp, err := http.Post(u, "application/sparql-update", strings.NewReader(`INSERT DATA { <http://ex/small> <http://ex/q> 1 }`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: a small update after the refusals: status %d", mount, resp.StatusCode)
		}
	}
	if st.Len() != servedRows+1 {
		// +1: both mounts insert the same small triple
		t.Fatalf("store holds %d triples, want %d: an oversized update left a mark", st.Len(), servedRows+1)
	}
	model := strings.TrimSuffix(st.query["/api/query"], "&sparql=")
	resp, err := http.Post(model, "application/json", strings.NewReader(`{"Class":"`+strings.Repeat("x", endpoint.MaxBodyBytes)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized builder model: status %d, want 413", resp.StatusCode)
	}
}
