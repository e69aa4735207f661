package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/sparql"
	"repro/internal/synth"
)

// fedServer builds a tool with the scholarly corpus partitioned across
// three endpoints plus one union endpoint, all indexed, and serves it.
func fedServer(t testing.TB) (*httptest.Server, []string, int) {
	t.Helper()
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	union := synth.Scholarly(1)
	parts := synth.Partition(union, 3)
	var urls []string
	for i, p := range parts {
		u := fmt.Sprintf("http://part%d.example.org/sparql", i)
		urls = append(urls, u)
		tool.Registry.Add(registry.Entry{URL: u, Title: u, AddedAt: clock.Epoch})
		tool.Connect(u, endpoint.LocalClient{Store: p})
		if err := tool.Process(u); err != nil {
			t.Fatal(err)
		}
	}
	tool.Registry.Add(registry.Entry{URL: dsURL, Title: "union", AddedAt: clock.Epoch})
	tool.Connect(dsURL, endpoint.LocalClient{Store: union})
	if err := tool.Process(dsURL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	return srv, urls, union.Len()
}

// ndjsonRows reads a streamed response: head vars, data rows, and the
// trailing error line if any.
func ndjsonRows(t testing.TB, resp *http.Response) (vars []string, rows []sparql.Binding, streamErr string) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no head line")
	}
	var head struct {
		Vars []string `json:"vars"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		t.Fatalf("head: %v (%s)", err, sc.Text())
	}
	for sc.Scan() {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Error != "" {
			return head.Vars, rows, e.Error
		}
		var b sparql.Binding
		if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
			t.Fatalf("row %d: %v (%s)", len(rows), err, sc.Text())
		}
		rows = append(rows, b)
	}
	return head.Vars, rows, ""
}

// TestQuerySourcesFederates: ?sources=all streams the same number of
// rows as the union endpoint holds.
func TestQuerySourcesFederates(t *testing.T) {
	srv, urls, unionLen := fedServer(t)
	q := url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	resp, err := http.Get(srv.URL + "/api/query?sources=" + url.QueryEscape(strings.Join(urls, ",")) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	_, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" {
		t.Fatalf("stream error: %s", streamErr)
	}
	if len(rows) != unionLen {
		t.Fatalf("federated rows = %d, union holds %d triples", len(rows), unionLen)
	}
}

// TestQuerySourcesAllKeyword: sources=all federates over every connected
// endpoint — partitions plus the union endpoint, so DISTINCT-on-merge is
// what keeps the duplicate-holding fan-out equal to the single result.
func TestQuerySourcesAllKeyword(t *testing.T) {
	srv, _, _ := fedServer(t)
	q := url.QueryEscape(`SELECT DISTINCT ?c WHERE { ?s a ?c }`)
	resp, err := http.Get(srv.URL + "/api/query?sources=all&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	_, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" {
		t.Fatalf("stream error: %s", streamErr)
	}
	if len(rows) != synth.ScholarlyClassCount() {
		t.Fatalf("DISTINCT classes over sources=all = %d, want %d", len(rows), synth.ScholarlyClassCount())
	}
	// must match the single union endpoint exactly
	resp2, err := http.Get(srv.URL + "/api/query?dataset=" + url.QueryEscape(dsURL) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	_, single, _ := ndjsonRows(t, resp2)
	if len(single) != len(rows) {
		t.Fatalf("federated DISTINCT %d rows, single endpoint %d", len(rows), len(single))
	}
}

// TestQueryLimitCapsStream: ?limit=N ends the NDJSON stream cleanly
// after N rows, single-endpoint and federated alike.
func TestQueryLimitCapsStream(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	for _, target := range []string{
		"dataset=" + url.QueryEscape(dsURL),
		"sources=" + url.QueryEscape(strings.Join(urls, ",")),
	} {
		resp, err := http.Get(srv.URL + "/api/query?" + target + "&limit=5&sparql=" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d", target, resp.StatusCode)
		}
		vars, rows, streamErr := ndjsonRows(t, resp)
		if streamErr != "" {
			t.Fatalf("%s: stream error: %s", target, streamErr)
		}
		if len(vars) != 3 || len(rows) != 5 {
			t.Fatalf("%s: vars=%v rows=%d, want 3 vars / 5 rows", target, vars, len(rows))
		}
	}
}

// TestQueryLimitRejectsGarbage: malformed limit is a 400, not a hang.
func TestQueryLimitRejectsGarbage(t *testing.T) {
	srv, _, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	for _, bad := range []string{"x", "-3", "1.5"} {
		code, _, _ := get(t, srv.URL+"/api/query?dataset="+url.QueryEscape(dsURL)+"&limit="+bad+"&sparql="+q)
		if code != http.StatusBadRequest {
			t.Fatalf("limit=%s: status %d, want 400", bad, code)
		}
	}
}

// TestQueryRejectsUnanswerableGroupedShapes: the two grouped shapes the
// parser refuses (they used to be answered silently wrong) are a 400 on
// /api/query, with the reason in the body.
func TestQueryRejectsUnanswerableGroupedShapes(t *testing.T) {
	srv, _, _ := fedServer(t)
	for query, reason := range map[string]string{
		`SELECT * WHERE { ?s a ?c } GROUP BY ?c`:                                          "SELECT * is not legal with GROUP BY",
		`SELECT ?c (COUNT(*) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY ASC(COUNT(*))`: "aggregate in ORDER BY",
	} {
		code, body, _ := get(t, srv.URL+"/api/query?dataset="+url.QueryEscape(dsURL)+"&sparql="+url.QueryEscape(query))
		if code != http.StatusBadRequest || !strings.Contains(body, reason) {
			t.Errorf("%s: status %d, body %q; want 400 naming %q", query, code, body, reason)
		}
	}
}

// TestQuerySourcesTolerantSplitting: spaces around commas and trailing
// commas in sources= must not mangle the endpoint lookup.
func TestQuerySourcesTolerantSplitting(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT DISTINCT ?c WHERE { ?s a ?c }`)
	sel := url.QueryEscape(urls[0] + ", " + urls[1] + " , " + urls[2] + ",")
	resp, err := http.Get(srv.URL + "/api/query?sources=" + sel + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	_, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" {
		t.Fatalf("stream error: %s", streamErr)
	}
	if len(rows) == 0 {
		t.Fatal("no rows over the whitespace-laced source list")
	}
}

// TestQuerySourcesUnknownEndpoint: naming an unconnected endpoint is a
// 404 before any streaming starts.
func TestQuerySourcesUnknownEndpoint(t *testing.T) {
	srv, _, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	code, _, _ := get(t, srv.URL+"/api/query?sources="+url.QueryEscape("http://nope.example.org/sparql")+"&sparql="+q)
	if code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

// TestQuerySourcesRejectsAggregates: a fanned-out aggregate would
// stream per-source partial results; the route answers 400 instead.
func TestQuerySourcesRejectsAggregates(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }`)
	code, body, _ := get(t, srv.URL+"/api/query?sources="+url.QueryEscape(strings.Join(urls, ","))+"&sparql="+q)
	if code != http.StatusBadRequest || !strings.HasPrefix(body, "federation: ") {
		t.Fatalf("status = %d, want 400 with the federation's own refusal (%s)", code, body)
	}
	// the same aggregate against a single dataset still works
	resp, err := http.Get(srv.URL + "/api/query?dataset=" + url.QueryEscape(dsURL) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" || len(rows) != 1 {
		t.Fatalf("single-dataset aggregate: %d rows, err %q", len(rows), streamErr)
	}
}

// TestQuerySourcesRejectsOffset: OFFSET over a federation would drop
// rows (each member skips independently); the route answers 400.
func TestQuerySourcesRejectsOffset(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o } OFFSET 3`)
	code, body, _ := get(t, srv.URL+"/api/query?sources="+url.QueryEscape(strings.Join(urls, ","))+"&sparql="+q)
	if code != http.StatusBadRequest || !strings.HasPrefix(body, "federation: ") {
		t.Fatalf("status = %d, want 400 with the federation's own refusal (%s)", code, body)
	}
	// the same OFFSET against a single dataset still works
	resp, err := http.Get(srv.URL + "/api/query?dataset=" + url.QueryEscape(dsURL) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("single-dataset OFFSET status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQuerySourcesRejectsNonProjectedOrderBy: ORDER BY on a variable
// the SELECT list drops cannot be merged in order (the merge sees only
// projected rows); the route answers 400 instead of concatenating.
func TestQuerySourcesRejectsNonProjectedOrderBy(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s a ?c } ORDER BY ?c LIMIT 5`)
	code, body, _ := get(t, srv.URL+"/api/query?sources="+url.QueryEscape(strings.Join(urls, ","))+"&sparql="+q)
	if code != http.StatusBadRequest || !strings.HasPrefix(body, "federation: ") {
		t.Fatalf("status = %d, want 400 with the federation's own refusal (%s)", code, body)
	}
	// the same query against a single dataset still works
	resp, err := http.Get(srv.URL + "/api/query?dataset=" + url.QueryEscape(dsURL) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("single-dataset status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQuerySourcesOrderByStreamsGlobalOrder: an ORDER BY query over
// sources= streams rows in the query's global order — the ordered merge
// re-establishes it across branches — and matches the union endpoint.
func TestQuerySourcesOrderByStreamsGlobalOrder(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 40`)
	resp, err := http.Get(srv.URL + "/api/query?sources=" + url.QueryEscape(strings.Join(urls, ",")) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	vars, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" {
		t.Fatalf("stream error: %s", streamErr)
	}
	resp2, err := http.Get(srv.URL + "/api/query?dataset=" + url.QueryEscape(dsURL) + "&sparql=" + q)
	if err != nil {
		t.Fatal(err)
	}
	_, single, _ := ndjsonRows(t, resp2)
	if len(rows) != 40 || len(single) != 40 {
		t.Fatalf("federated %d rows, union %d, want 40 each", len(rows), len(single))
	}
	for i := range single {
		if sparql.BindingKey(rows[i], vars) != sparql.BindingKey(single[i], vars) {
			t.Fatalf("row %d differs from the union endpoint's global top-40", i)
		}
	}
}

// TestQuerySourcesBadPolicy: unknown policy values are a 400.
func TestQuerySourcesBadPolicy(t *testing.T) {
	srv, urls, _ := fedServer(t)
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
	code, _, _ := get(t, srv.URL+"/api/query?sources="+url.QueryEscape(urls[0])+"&policy=frobnicate&sparql="+q)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

// TestQueryBuilderModelOverSources: a visual query model posted with
// sources= executes federated instead of returning generated text.
func TestQueryBuilderModelOverSources(t *testing.T) {
	srv, urls, _ := fedServer(t)
	model := `{"Class":"` + synth.ScholarlyNS + `Event","Attributes":["` + synth.ScholarlyNS + `label"],"Limit":3}`
	resp, err := http.Post(srv.URL+"/api/query?sources="+url.QueryEscape(strings.Join(urls, ",")),
		"application/json", strings.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %s", ct)
	}
	_, rows, streamErr := ndjsonRows(t, resp)
	if streamErr != "" {
		t.Fatalf("stream error: %s", streamErr)
	}
	if len(rows) == 0 || len(rows) > 3 {
		t.Fatalf("rows = %d, want 1..3", len(rows))
	}
}
