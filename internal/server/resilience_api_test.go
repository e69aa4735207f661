package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/faultinject"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/synth"
)

// chaosFedServer builds a tool federating over three real HTTP protocol
// endpoints (one scholarly partition each), with member 1's handler
// wrapped in the given chaos middleware, and serves the presentation
// layer over it. It returns the API server, the member URLs, the
// partitions, and the triple count of the two healthy partitions.
func chaosFedServer(t testing.TB, mid func(http.Handler) http.Handler) (*httptest.Server, []string, []*store.Store, int) {
	t.Helper()
	tool := core.New(docstore.MustOpenMem(), clock.Real{})
	parts := synth.Partition(synth.Scholarly(1), 3)
	healthy := 0
	var urls []string
	for i, p := range parts {
		var h http.Handler = &endpoint.Handler{Store: p}
		if i == 1 && mid != nil {
			h = mid(h)
		} else {
			healthy += p.Len()
		}
		member := httptest.NewServer(h)
		t.Cleanup(member.Close)
		urls = append(urls, member.URL)
		c := endpoint.NewHTTPClient(member.URL)
		// keep chaos-induced retries fast: the suite exercises routing
		// and teardown, not wall-clock backoff
		c.Retries = 1
		c.BaseBackoff = time.Millisecond
		c.MaxBackoff = 5 * time.Millisecond
		tool.Connect(member.URL, c)
	}
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	return srv, urls, parts, healthy
}

// ndjsonStream is a fully parsed NDJSON response including the
// resilience framing: the head's partial marker and the trailing
// incomplete-sources line.
type ndjsonStream struct {
	partial    string
	vars       []string
	rows       []sparql.Binding
	streamErr  string
	incomplete []string // nil when no trailer line was sent
}

// readNDJSON parses a streamed /api/query response, head to trailer.
func readNDJSON(t testing.TB, resp *http.Response) ndjsonStream {
	t.Helper()
	defer resp.Body.Close()
	var out ndjsonStream
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no head line")
	}
	var head struct {
		Partial string   `json:"partial"`
		Vars    []string `json:"vars"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("head: %v (%s)", err, sc.Text())
	}
	out.partial, out.vars = head.Partial, head.Vars
	for sc.Scan() {
		var meta struct {
			Error      string    `json:"error"`
			Incomplete *[]string `json:"incomplete"`
		}
		if json.Unmarshal(sc.Bytes(), &meta) == nil {
			if meta.Error != "" {
				out.streamErr = meta.Error
				continue
			}
			if meta.Incomplete != nil {
				out.incomplete = *meta.Incomplete
				continue
			}
		}
		var b sparql.Binding
		if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
			t.Fatalf("row %d: %v (%s)", len(out.rows), err, sc.Text())
		}
		out.rows = append(out.rows, b)
	}
	return out
}

// cutMember is the chaos profile of the acceptance scenario: every
// response from the member dies after 512 bytes — well into the row
// stream, well before its end.
func cutMember() func(http.Handler) http.Handler {
	return faultinject.New(faultinject.Config{Seed: 19, CutRate: 1, CutAfter: 512}).Middleware
}

const soakQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

// TestQueryPartialOKOverHTTP is the tentpole acceptance scenario at the
// API boundary: one of three members dies mid-stream; partial=ok must
// deliver every healthy-branch row plus a machine-readable trailer
// naming the dead member, while default mode surfaces the death as the
// stream error line.
func TestQueryPartialOKOverHTTP(t *testing.T) {
	srv, urls, _, healthy := chaosFedServer(t, cutMember())
	q := url.QueryEscape(soakQuery)
	sel := url.QueryEscape(strings.Join(urls, ","))

	resp, err := http.Get(srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	got := readNDJSON(t, resp)
	if got.partial != "ok" {
		t.Fatalf("head partial = %q, want %q", got.partial, "ok")
	}
	if got.streamErr != "" {
		t.Fatalf("partial mode leaked a stream error: %s", got.streamErr)
	}
	if len(got.rows) < healthy {
		t.Fatalf("rows = %d, want at least the %d healthy-branch rows", len(got.rows), healthy)
	}
	if len(got.incomplete) != 1 || got.incomplete[0] != urls[1] {
		t.Fatalf("incomplete = %v, want [%s]", got.incomplete, urls[1])
	}

	// default mode: the same death is an error, not a short answer
	resp, err = http.Get(srv.URL + "/api/query?sources=" + sel + "&policy=all&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("default mode status = %d, want 200 (the failure is mid-stream)", resp.StatusCode)
	}
	got = readNDJSON(t, resp)
	if got.streamErr == "" {
		t.Fatal("default mode swallowed a mid-stream branch death")
	}
	if got.incomplete != nil {
		t.Fatalf("default mode sent a partial trailer: %v", got.incomplete)
	}
}

// TestQueryPartialCompleteTrailerIsEmpty: with no chaos, partial mode
// still sends the trailer — an empty one, so clients can tell "complete"
// from "connection died before the trailer".
func TestQueryPartialCompleteTrailerIsEmpty(t *testing.T) {
	srv, urls, _, _ := chaosFedServer(t, nil)
	q := url.QueryEscape(soakQuery)
	sel := url.QueryEscape(strings.Join(urls, ","))
	resp, err := http.Get(srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	got := readNDJSON(t, resp)
	if got.streamErr != "" {
		t.Fatalf("stream error: %s", got.streamErr)
	}
	if got.incomplete == nil || len(got.incomplete) != 0 {
		t.Fatalf("incomplete = %v, want the empty trailer", got.incomplete)
	}
}

// TestQueryPartialOneChunkKeepsTrailer: a partial-mode answer that fits
// one gathered write still ends with its trailer. The trailer is written
// after the row loop returns, so the rows must not go out under a
// Content-Length that leaves it outside the response.
func TestQueryPartialOneChunkKeepsTrailer(t *testing.T) {
	srv, urls, _, _ := chaosFedServer(t, nil)
	sel := url.QueryEscape(strings.Join(urls, ","))
	resp, err := http.Get(srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&limit=5&sparql=" + url.QueryEscape(soakQuery))
	if err != nil {
		t.Fatal(err)
	}
	got := readNDJSON(t, resp)
	if got.partial != "ok" || got.streamErr != "" || len(got.rows) != 5 {
		t.Fatalf("head partial %q, stream error %q, %d rows; want ok, none, 5", got.partial, got.streamErr, len(got.rows))
	}
	if got.incomplete == nil || len(got.incomplete) != 0 {
		t.Fatalf("incomplete = %v, want the empty trailer", got.incomplete)
	}
}

// TestQueryPartialParamValidation: partial=ok without a federation and
// partial with any other value are request errors, as are the shapes
// whose semantics a dropped branch would silently change.
func TestQueryPartialParamValidation(t *testing.T) {
	srv, urls, _, _ := chaosFedServer(t, nil)
	sel := url.QueryEscape(strings.Join(urls, ","))
	q := url.QueryEscape(soakQuery)
	for name, u := range map[string]string{
		"bad value":  srv.URL + "/api/query?sources=" + sel + "&partial=yes&sparql=" + q,
		"no sources": srv.URL + "/api/query?dataset=" + url.QueryEscape(urls[0]) + "&partial=ok&sparql=" + q,
		"order by":   srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&sparql=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s`),
		"distinct":   srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&sparql=" + url.QueryEscape(`SELECT DISTINCT ?s WHERE { ?s ?p ?o }`),
	} {
		code, body, _ := get(t, u)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", name, code, body)
		}
		// the shape refusals are the federation's, worded once, there
		if shape := name == "order by" || name == "distinct"; shape != strings.HasPrefix(body, "federation: ") {
			t.Fatalf("%s: refused by the wrong layer: %s", name, body)
		}
	}
}

// TestQueryFormatsHardAbortUnderPartial: the four W3C serializations
// have no framing for degradation, so partial=ok is ignored there and a
// mid-stream death must never end as a well-formed short document —
// asserted on the raw bytes.
func TestQueryFormatsHardAbortUnderPartial(t *testing.T) {
	srv, urls, _, _ := chaosFedServer(t, cutMember())
	sel := url.QueryEscape(strings.Join(urls, ","))
	q := url.QueryEscape(soakQuery)
	for _, format := range []string{"json", "csv", "tsv", "xml"} {
		resp, err := http.Get(srv.URL + "/api/query?sources=" + sel + "&policy=all&partial=ok&format=" + format + "&sparql=" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch format {
		case "csv", "tsv":
			// no in-band terminator exists: the handler aborts the
			// connection so the client cannot mistake the prefix for a
			// complete result
			if readErr == nil {
				t.Fatalf("%s: read completed cleanly over an aborted result (%d bytes)", format, len(body))
			}
		case "json":
			var doc any
			if json.Unmarshal(body, &doc) == nil {
				t.Fatalf("json: truncated result parses as a complete document (%d bytes)", len(body))
			}
		case "xml":
			if strings.Contains(string(body), "</sparql>") {
				t.Fatalf("xml: truncated result carries the closing root tag (%d bytes)", len(body))
			}
		}
	}
}

// TestChaosSoak federates over three members with one flapping on a
// deterministic schedule and hammers the query API in both modes; the
// process must come back to its goroutine baseline — no branch, hedge
// or merge goroutine may outlive its query.
func TestChaosSoak(t *testing.T) {
	flap := faultinject.New(faultinject.Config{Seed: 7, FlapPeriod: 40 * time.Millisecond, FlapDownProb: 0.5})
	srv, urls, parts, _ := chaosFedServer(t, flap.Middleware)
	sel := url.QueryEscape(strings.Join(urls, ","))
	// the class-membership slice of the corpus: big enough to exercise
	// the merge, small enough to run the soak in seconds
	q := url.QueryEscape(`SELECT ?s ?c WHERE { ?s a ?c }`)
	healthy := 0
	for i, p := range parts {
		if i != 1 {
			healthy += p.Count(store.Pattern{P: rdf.NewIRI(rdf.RDFType)})
		}
	}
	client := &http.Client{}

	run := func(partial bool) {
		u := srv.URL + "/api/query?sources=" + sel + "&policy=all&sparql=" + q
		if partial {
			u += "&partial=ok"
		}
		resp, err := client.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		got := readNDJSON(t, resp)
		if got.streamErr != "" {
			t.Fatalf("soak query failed: %s", got.streamErr)
		}
		// a down member is routed around, never silently truncated
		if len(got.rows) < healthy {
			t.Fatalf("rows = %d, want >= %d", len(got.rows), healthy)
		}
	}

	run(false) // warm transports before taking the baseline
	client.CloseIdleConnections()
	endpoint.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 40; i++ {
		run(i%2 == 0)
		if i%7 == 0 {
			time.Sleep(10 * time.Millisecond) // let the flap schedule advance
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		// hedges and retries open extra keep-alive connections whose
		// idle read/write loops would otherwise count against the
		// baseline until the transport's 90 s idle timeout
		client.CloseIdleConnections()
		endpoint.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFederationStatsExportsBreakers: the stats API carries every
// breaker the process has registered, in its wire vocabulary.
func TestFederationStatsExportsBreakers(t *testing.T) {
	srv, urls, _, _ := chaosFedServer(t, nil)
	sel := url.QueryEscape(strings.Join(urls, ","))
	q := url.QueryEscape(`ASK { ?s ?p ?o }`)
	if code, body, _ := get(t, srv.URL+"/api/query?sources="+sel+"&policy=all&sparql="+q); code != 200 {
		t.Fatalf("warm-up query: code %d (%s)", code, body)
	}
	code, body, _ := get(t, srv.URL+"/api/federation/stats")
	if code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	var doc struct {
		Breakers map[string]struct {
			State string    `json:"state"`
			Since time.Time `json:"since"`
		} `json:"breakers"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		b, ok := doc.Breakers[u]
		if !ok {
			t.Fatalf("no breaker exported for %s in %v", u, doc.Breakers)
		}
		if b.State != "closed" {
			t.Fatalf("breaker %s state = %q, want closed", u, b.State)
		}
	}
}
