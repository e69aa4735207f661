package server

// Tests for the presentation path as bytes: what reaches the wire for a
// hostile input is still one well-formed SVG document, a cache hit writes
// the cached slice and allocates nothing the size of a body, the ETag is
// spelled as before, and a miss leaves its stages on /metrics.

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/turtle"
)

// svgElements are the element names internal/svg can emit.
var svgElements = map[string]bool{
	"svg": true, "rect": true, "circle": true, "line": true, "text": true, "path": true, "polyline": true,
}

// requireRendererElementsOnly reads body to EOF with encoding/xml and
// fails on a syntax error or on any element the renderer has no method
// for — which is what injected markup would be.
func requireRendererElementsOnly(t *testing.T, what, body string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(body))
	elements := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: not well-formed XML: %v\n%s", what, err, body)
		}
		if el, ok := tok.(xml.StartElement); ok {
			elements++
			if !svgElements[el.Name.Local] {
				t.Fatalf("%s: element <%s> was not emitted by the renderer\n%s", what, el.Name.Local, body)
			}
		}
	}
	if elements < 2 {
		t.Fatalf("%s: only %d elements\n%s", what, elements, body)
	}
}

var viewKinds = []string{"treemap", "sunburst", "circlepack", "bundle", "cluster-graph", "summary-graph"}

func TestHostileFocusCannotInjectMarkup(t *testing.T) {
	srv := testServer(t)
	for _, focus := range []string{
		"---><script>alert(1)</script>",
		"--><script>alert(1)</script><!--",
		"-", "--", "----->", "a\x00b\x1bc", "\xff\xfe--", "]]>--!>",
	} {
		code, body, hdr := get(t, srv.URL+"/view/bundle?dataset="+url.QueryEscape(dsURL)+"&focus="+url.QueryEscape(focus))
		if code != 200 || hdr.Get("Content-Type") != "image/svg+xml" {
			t.Fatalf("focus %q: status %d, content type %q", focus, code, hdr.Get("Content-Type"))
		}
		requireRendererElementsOnly(t, fmt.Sprintf("focus %q", focus), body)
	}
}

// TestHostileDatasetCannotInjectMarkup serves a dataset whose URL and
// rdfs:labels are all chosen by someone else: markup, comment
// terminators, quotes and a control character. Every view of it must
// still be one SVG document holding only the renderer's elements.
func TestHostileDatasetCannotInjectMarkup(t *testing.T) {
	const hostileURL = `http://evil.example.org/--><script>alert(1)</script>/"sparql`
	g := turtle.MustParse(`
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://evil.example.org/ns#> .
ex:A rdfs:label "</text><script>alert(1)</script><text>" .
ex:B rdfs:label "B\" onload=\"alert(1) & \u0001 --> <!--" .
ex:a1 a ex:A ; ex:knows ex:b1 . ex:a2 a ex:A ; ex:knows ex:b1 .
ex:b1 a ex:B ; ex:name "b" . ex:b2 a ex:B ; ex:likes ex:a1 .
ex:c1 a ex:C ; ex:near ex:a1 .
`)
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	t.Cleanup(tool.Close)
	tool.Registry.Add(registry.Entry{URL: hostileURL, Title: "hostile", AddedAt: clock.Epoch})
	tool.Connect(hostileURL, endpoint.LocalClient{Store: store.FromGraph(g)})
	if err := tool.Process(hostileURL); err != nil {
		t.Fatal(err)
	}
	sum, err := tool.Summary(hostileURL)
	if err != nil {
		t.Fatal(err)
	}
	hostileLabels := 0
	for _, n := range sum.Nodes {
		if strings.Contains(n.Label, "<script>") || strings.Contains(n.Label, "\x01") {
			hostileLabels++
		}
	}
	if hostileLabels != 2 {
		t.Fatalf("fixture lost its hostile labels: %+v", sum.Nodes)
	}
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	for _, kind := range viewKinds {
		code, body, _ := get(t, srv.URL+"/view/"+kind+"?dataset="+url.QueryEscape(hostileURL))
		if code != 200 {
			t.Fatalf("%s: status %d: %s", kind, code, body)
		}
		requireRendererElementsOnly(t, kind, body)
		if strings.Contains(body, "\x01") {
			t.Fatalf("%s: a control character reached the document", kind)
		}
	}
}

// TestSnapshotBodiesCarryContentLength: views and JSON snapshots are
// written whole, with their length, on a miss and on a hit alike, and the
// JSON body ends in the one newline json.Encoder used to add.
func TestSnapshotBodiesCarryContentLength(t *testing.T) {
	srv := testServer(t)
	q := "?dataset=" + url.QueryEscape(dsURL)
	for _, path := range []string{"/view/treemap", "/view/bundle", "/api/summary", "/api/cluster", "/api/model/sunburst"} {
		var first string
		for _, pass := range []string{"miss", "hit"} {
			resp, err := http.Get(srv.URL + path + q)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Fatalf("%s (%s): status %d, Content-Length %d, transfer encoding %v, body %d bytes",
					path, pass, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
			}
			if strings.HasPrefix(path, "/api/") && (!strings.HasSuffix(string(body), "}\n") || strings.HasSuffix(string(body), "\n\n")) {
				t.Fatalf("%s (%s): JSON body must end in exactly one newline: %q", path, pass, body[len(body)-3:])
			}
			if pass == "miss" {
				first = string(body)
			} else if string(body) != first {
				t.Fatalf("%s: hit body differs from miss body", path)
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what a handler
// allocates is the handler's own doing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestViewHitAllocatesNoBody: a snapshot-cache hit writes the cached
// slice; it must not copy it. What a hit may allocate is the request's
// own small change — the parsed query, four header values, the ETag, the
// miss closure: about 600 B — and it is the same whatever the body's
// size. hitBudget is under a quarter of the smallest hierarchical view
// of the 16-class fixture and a sixteenth of its bundle. (The fixture's
// three-cluster graph is 658 B, smaller than a parsed query string; it
// is held to the same constant, which a copy would double.)
func TestViewHitAllocatesNoBody(t *testing.T) {
	const hitBudget = 1024
	tool, _ := cacheTestTool(t)
	srv := New(tool)
	for _, kind := range viewKinds {
		target := "/view/" + kind + "?dataset=" + url.QueryEscape(dsURL)
		if kind == "bundle" {
			target += "&focus=" + url.QueryEscape("http://scholarly.example.org/ns#Event")
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		w := &discardWriter{h: http.Header{}}
		srv.ServeHTTP(w, req) // the miss
		if w.n == 0 || w.status != 0 {
			t.Fatalf("%s: miss wrote %d bytes, status %d", kind, w.n, w.status)
		}
		body := w.n
		const rounds = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			clear(w.h)
			w.n = 0
			srv.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		if w.n != body {
			t.Fatalf("%s: hit wrote %d bytes, miss wrote %d", kind, w.n, body)
		}
		if got := w.h.Get("Content-Length"); got != strconv.Itoa(body) {
			t.Fatalf("%s: Content-Length %q, body %d", kind, got, body)
		}
		perHit := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%-14s body %6d B, %4d B allocated per hit", kind, body, perHit)
		if perHit > hitBudget {
			t.Errorf("%s: %d B allocated per hit (body %d B), budget %d", kind, perHit, body, hitBudget)
		}
	}
	if st := tool.Cache.Stats(); st.Misses != int64(len(viewKinds)) {
		t.Fatalf("cache misses = %d, want one per view (%d): the rounds were not hits", st.Misses, len(viewKinds))
	}
}

// TestETagSpelling holds etagOf to the fmt spelling it replaced, on URLs
// that need the quoting: quotes, commas, backslashes, control and
// non-UTF-8 bytes.
func TestETagSpelling(t *testing.T) {
	for _, u := range []string{
		"http://scholarly.example.org/sparql",
		`http://x/a"b"/sparql`, "http://x/a,b,c", `http://x/back\slash`, "http://x/\x00\x1f\x7f", "http://x/é/\xff\xc3",
		"", strings.Repeat("long/", 60),
	} {
		for _, gen := range []uint64{1, 9, 10, 12345, 1<<64 - 1} {
			want := fmt.Sprintf("%q", fmt.Sprintf("%s@%d", u, gen))
			if got := etagOf(u, gen); got != want {
				t.Errorf("etagOf(%q, %d) = %s, want %s", u, gen, got, want)
			}
		}
	}
	// and the header carries it, matching itself on revalidation
	_, srv := cacheTestTool(t)
	resp := getWithETag(t, srv.URL+"/api/summary?dataset="+url.QueryEscape(dsURL), "")
	etag := resp.Header.Get("ETag")
	if want := `"` + dsURL + `@1"`; etag != want {
		t.Fatalf("ETag = %s, want %s", etag, want)
	}
	if resp := getWithETag(t, srv.URL+"/api/summary?dataset="+url.QueryEscape(dsURL), etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
}

// TestMissStagesOnMetrics: a render and a model build each leave one
// observation under the benchmark's layer name; hits leave none; the
// placement and partition counters are on the scrape surface.
func TestMissStagesOnMetrics(t *testing.T) {
	_, srv := cacheTestTool(t)
	q := "?dataset=" + url.QueryEscape(dsURL)
	for i := 0; i < 3; i++ {
		for _, path := range []string{"/view/treemap", "/view/cluster-graph", "/api/model/circlepack"} {
			if code, body, _ := get(t, srv.URL+path+q); code != 200 {
				t.Fatalf("%s: status %d: %s", path, code, body)
			}
		}
	}
	_, metrics, _ := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`hbold_stage_seconds_count{stage="viz.render.treemap"} 1`,
		`hbold_stage_seconds_count{stage="viz.render.cluster-graph"} 1`,
		`hbold_stage_seconds_count{stage="viz.model.circlepack"} 1`,
		"hbold_viz_placement_reuses_total ",
		"hbold_viz_placement_computes_total ",
		"hbold_cluster_partition_reuses_total ",
		"hbold_cluster_partition_computes_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if strings.Contains(metrics, `stage="viz.render.sunburst"`) {
		t.Error("a stage nobody ran has a series")
	}
}
