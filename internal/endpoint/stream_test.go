package endpoint

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// streamStore builds a store big enough that streams have rows to spare
// after any early-exit point the tests cancel at. (synth would be the
// natural generator but it imports this package.)
func streamStore() *store.Store {
	st := store.New()
	classes := []rdf.Term{rdf.NewIRI("http://ex/C0"), rdf.NewIRI("http://ex/C1"), rdf.NewIRI("http://ex/C2")}
	typ := rdf.NewIRI(rdf.RDFType)
	p := rdf.NewIRI("http://ex/p")
	name := rdf.NewIRI("http://ex/name")
	for i := 0; i < 300; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/i%d", i))
		st.AddSPO(s, typ, classes[i%len(classes)])
		st.AddSPO(s, p, rdf.NewIRI(fmt.Sprintf("http://ex/i%d", (i+7)%300)))
		st.AddSPO(s, name, rdf.NewLiteral(fmt.Sprintf("item %d", i)))
	}
	return st
}

func sortedRowKeys(vars []string, rows []sparql.Binding) []string {
	keys := make([]string, 0, len(rows))
	for _, r := range rows {
		var sb strings.Builder
		for _, v := range vars {
			if t, ok := r[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\x00')
		}
		keys = append(keys, sb.String())
	}
	sort.Strings(keys)
	return keys
}

// TestHTTPStreamMatchesQuery is the over-the-wire differential: the
// streamed rows must be exactly the materialized rows (as a multiset —
// SPARQL imposes no order without ORDER BY).
func TestHTTPStreamMatchesQuery(t *testing.T) {
	srv := Serve(streamStore(), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	ctx := context.Background()
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY ?c`,
		`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`,
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT 7`,
	} {
		res, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rs, err := c.Stream(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var rows []sparql.Binding
		for row := range rs.All() {
			rows = append(rows, row)
		}
		if rs.Err() != nil {
			t.Fatalf("%s: stream err %v", q, rs.Err())
		}
		if fmt.Sprint(rs.Vars) != fmt.Sprint(res.Vars) {
			t.Fatalf("%s: vars %v vs %v", q, rs.Vars, res.Vars)
		}
		got, want := sortedRowKeys(res.Vars, rows), sortedRowKeys(res.Vars, res.Rows)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: streamed rows differ from materialized", q)
		}
	}
}

func TestHTTPStreamAsk(t *testing.T) {
	srv := Serve(streamStore(), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	rs, err := c.Stream(context.Background(), `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Ask || !rs.Boolean {
		t.Fatalf("ask = %v/%v", rs.Ask, rs.Boolean)
	}
}

// TestClientSendsAccept verifies both request paths advertise the SPARQL
// JSON results format.
func TestClientSendsAccept(t *testing.T) {
	var accepts []string
	st := streamStore()
	h := &Handler{Store: st}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accepts = append(accepts, r.Header.Get("Accept"))
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	if _, err := c.Query(context.Background(), `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	rs.Collect()
	if len(accepts) != 2 {
		t.Fatalf("requests = %d", len(accepts))
	}
	for _, a := range accepts {
		if a != "application/sparql-results+json" {
			t.Fatalf("Accept = %q", a)
		}
	}
}

// TestHTTPStreamTruncatedBody simulates an endpoint dying mid-response:
// the client must surface a stream error, never a silently short result.
func TestHTTPStreamTruncatedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		// two valid rows, then the document just stops
		fmt.Fprint(w, `{"head":{"vars":["s"]},"results":{"bindings":[`+
			`{"s":{"type":"uri","value":"http://ex/1"}},`+
			`{"s":{"type":"uri","value":"http://ex/2"}}`)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	rs, err := c.Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for range rs.All() {
		rows++
	}
	if rows != 2 {
		t.Fatalf("rows before truncation = %d, want 2", rows)
	}
	if rs.Err() == nil {
		t.Fatal("truncated stream reported a clean end")
	}
}

// TestHTTPStreamInvalidJSON covers a misbehaving endpoint emitting
// garbage mid-document.
func TestHTTPStreamInvalidJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		fmt.Fprint(w, `{"head":{"vars":["s"]},"results":{"bindings":[`+
			`{"s":{"type":"uri","value":"http://ex/1"}},`+
			`this is not json]}}`)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	rs, err := c.Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for range rs.All() {
		rows++
	}
	if rows != 1 || rs.Err() == nil {
		t.Fatalf("rows = %d, err = %v; want 1 row then an error", rows, rs.Err())
	}
}

// TestHTTPStreamCancel cancels the context mid-stream and checks the
// stream stops within one row boundary with the context's error.
func TestHTTPStreamCancel(t *testing.T) {
	srv := Serve(streamStore(), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs, err := c.Stream(ctx, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	got := 0
	for range rs.All() {
		got++
		if got == 2 {
			cancel()
		}
		if got > 3 {
			t.Fatalf("stream kept producing after cancel: %d rows", got)
		}
	}
	if !errors.Is(rs.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", rs.Err())
	}
}

// TestStreamRetriesTransientFailures exercises the jittered backoff path:
// the first two attempts get a 500, the third streams normally.
func TestStreamRetriesTransientFailures(t *testing.T) {
	failures := 2
	srv := ServeFlaky(streamStore(), &failures)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retries = 3
	c.BaseBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	rs, err := c.Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || failures != 0 {
		t.Fatalf("rows = %d, failures left = %d", len(res.Rows), failures)
	}
}

// TestRetryAfterHTTPTimeout: an http-level timeout is transient and must
// consume a retry, not short-circuit as permanent — only the caller's own
// dead context makes retrying pointless.
func TestRetryAfterHTTPTimeout(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	h := &Handler{Store: streamStore()}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(200 * time.Millisecond)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.HTTP = &http.Client{Timeout: 50 * time.Millisecond} // first attempt times out
	c.Retries = 2
	c.BaseBackoff = time.Millisecond
	res, err := c.Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatalf("timeout was not retried: %v", err)
	}
	if !res.Boolean {
		t.Fatal("wrong answer after retry")
	}
}

// TestBackoffAbortsOnCancel: a canceled context must cut the retry sleep
// short instead of serving it out.
func TestBackoffAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retries = 5
	c.BaseBackoff = time.Hour // would hang without the ctx escape
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, `ASK { ?s ?p ?o }`)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Query did not return after cancel during backoff")
	}
}

// TestMaxRowsQuirkStreams: the silent truncation cap applies to streams
// as a clean early stop, like a real endpoint's result cap.
func TestMaxRowsQuirkStreams(t *testing.T) {
	st := streamStore()
	rs, err := EvaluateStream(context.Background(), st, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, &Quirks{Name: "capped", MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("capped stream = %d rows", len(res.Rows))
	}
}

// TestRemoteStreamCostPerRow: the simulated cost model charges the base
// latency at query time and the transfer cost per row actually pulled —
// an abandoned stream stops costing.
func TestRemoteStreamCostPerRow(t *testing.T) {
	r := NewRemote("r", "http://r/sparql", streamStore(), nil, nil, nil)
	r.Cost = CostModel{BaseLatency: time.Millisecond, PerRow: time.Microsecond}
	rs, err := r.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rs.Terms() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatal("stream ended early")
	}
	rs.Close()
	queries, virtual := r.Stats()
	want := time.Millisecond + 3*time.Microsecond
	if queries != 1 || virtual != want {
		t.Fatalf("stats = %d queries, %v virtual; want 1, %v", queries, virtual, want)
	}
}

// TestRemoteQueryHonorsCancel: even the materialized Query path of a
// simulated remote aborts mid-evaluation when the context dies.
func TestRemoteQueryHonorsCancel(t *testing.T) {
	r := NewRemote("r", "http://r/sparql", streamStore(), nil, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryAndStreamRetryAlike: Query collects the stream Stream opens,
// inside the same retry attempt, so the two cannot classify what an
// endpoint sent differently: a response that breaks before any row has
// reached the caller — cut inside the head, or not a results document at
// all — costs an attempt on either path and the retry delivers the
// answer. (Before, Query called a malformed document permanent and
// Stream retried it.) They differ only where they must: once a row is
// out, Stream can but report the break; Query has handed nothing over
// yet and still retries.
func TestQueryAndStreamRetryAlike(t *testing.T) {
	const good = `{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://ex/1"}}]}}`
	for _, tc := range []struct {
		name, bad      string
		streamAttempts int32 // Query always takes all three
	}{
		{"body cut inside the head", `{"head":{"vars":["s"]},"resul`, 3},
		{"malformed head", `<html>not a results document</html>`, 3},
		{"body cut after the first row", `{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://ex/1"}},`, 1},
	} {
		for _, via := range []string{"Query", "Stream"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				var attempts atomic.Int32
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/sparql-results+json")
					if attempts.Add(1) < 3 {
						fmt.Fprint(w, tc.bad)
						return
					}
					fmt.Fprint(w, good)
				}))
				defer srv.Close()
				c := NewHTTPClient(srv.URL)
				c.Retries = 2
				c.BaseBackoff, c.MaxBackoff = time.Millisecond, 2*time.Millisecond
				var res *sparql.Result
				var err error
				want := int32(3)
				if via == "Query" {
					res, err = c.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`)
				} else {
					var rs *sparql.RowSeq
					if rs, err = c.Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
						res, err = rs.Collect()
					}
					want = tc.streamAttempts
				}
				if got := attempts.Load(); got != want {
					t.Fatalf("%d attempts, want %d (err %v)", got, want, err)
				}
				if want == 3 && (err != nil || len(res.Rows) != 1) {
					t.Fatalf("after the retries: %v, err %v; want the one row", res, err)
				}
				if want == 1 && err == nil {
					t.Fatal("a stream cut after its first row ended cleanly")
				}
			})
		}
	}
}
