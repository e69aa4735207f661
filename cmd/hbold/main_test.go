package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/synth"
	"repro/internal/viz"
)

// TestDebugListener: -debug-addr is off when empty, and when set serves
// the net/http/pprof index and profiles on a listener of its own, with
// heap sampling turned back on for the heap profile.
func TestDebugListener(t *testing.T) {
	runtime.MemProfileRate = 0 // as main leaves it
	if ln := debugListen(""); ln != nil {
		t.Fatal("an empty -debug-addr opened a listener")
	}
	if runtime.MemProfileRate != 0 {
		t.Fatal("an empty -debug-addr turned heap sampling on")
	}
	ln := debugListen("127.0.0.1:0")
	defer ln.Close()
	if runtime.MemProfileRate == 0 {
		t.Fatal("the debug listener left heap sampling off")
	}
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/heap?debug=1":      "heap profile",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: %d, %.200q; want 200 with %q", path, resp.StatusCode, body, want)
		}
	}
}

// TestDataDirSeedsOnce: sparqld -data-dir seeds a directory that never
// held a term, and restarts one that did, even when its triples have all
// been deleted since: its dictionary is not empty, so a second seed
// would be refused, and there is nothing to seed anyway.
func TestDataDirSeedsOnce(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(t.TempDir(), "one.nt")
	if err := os.WriteFile(doc, []byte("<http://ex/a> <http://ex/p> <http://ex/b> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openDataDir(dir, ""); err == nil {
		t.Fatal("an empty data dir opened with nothing to seed it from")
	}
	ds, how, err := openDataDir(dir, doc)
	if err != nil || ds.Len() != 1 || !strings.Contains(how, "seeded") {
		t.Fatalf("first start: %q, %v", how, err)
	}
	tr := rdf.NewTriple(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b"))
	if ok, err := ds.Delete(tr); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{doc, ""} {
		ds, how, err := openDataDir(dir, seed)
		if err != nil || ds.Len() != 0 || !strings.Contains(how, "restarted") {
			t.Fatalf("restart of an emptied data dir, seed %q: %q, %v", seed, how, err)
		}
		ds.Close()
	}
}

// views renders the views of the renderer's per-(dataset, view) digest
// table (internal/viz/testdata/parent_views.sha256) from one dataset's
// schemas.
func views(cs *cluster.Schema, s *schema.Summary) map[string][]byte {
	visible := map[string]bool{}
	for i, n := range s.Nodes {
		if i%2 == 0 {
			visible[n.IRI] = true
		}
	}
	return map[string][]byte{
		"treemap":               viz.TreemapView(cs, s, 1000, 700),
		"sunburst":              viz.SunburstView(cs, s, 800),
		"circlepack":            viz.CirclePackView(cs, s, 800),
		"bundle":                viz.BundleView(cs, s, "", 900),
		"bundle-focus":          viz.BundleView(cs, s, s.Nodes[0].IRI, 900),
		"cluster-graph":         viz.ClusterGraphView(cs, 900),
		"summary-graph":         viz.SummaryGraphView(s, nil, 900),
		"summary-graph-visible": viz.SummaryGraphView(s, visible, 900),
	}
}

// viewDigests reads the digest table: "dataset view" → "sha256 length".
func viewDigests(t *testing.T) map[string]string {
	raw, err := os.ReadFile("../../internal/viz/testdata/parent_views.sha256")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		out[f[0]+" "+f[1]] = f[2] + " " + f[3]
	}
	return out
}

// documents is what a dataset's start-up leaves to serve: its
// generation, index, summary and cluster schema as JSON, and its views.
func documents(t *testing.T, tool *core.HBOLD, url string) (uint64, string, map[string][]byte) {
	t.Helper()
	ix, err := tool.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tool.Summary(url)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := tool.ClusterSchema(url)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := json.Marshal([]any{ix, s, cs})
	if err != nil {
		t.Fatal(err)
	}
	return tool.Generation(url), string(docs), views(cs, s)
}

func newStartUpTool() *core.HBOLD {
	tool := core.New(nil, clock.NewSim(clock.Epoch))
	tool.Seed = 1 // the digest table's clustering seed
	return tool
}

// TestStartUpMatchesSequential: serve's start-up, run on its workers
// over the demo corpus, leaves every dataset at generation 1 with the
// documents and view bytes that indexing the datasets one at a time
// leaves, and the views of the datasets the digest table holds match it
// (the table extracted the Scholarly LD under another URL, which its
// views print, so it checks the corpus datasets only). A
// unit that ran twice, or whose Process did not follow its own Connect,
// shows as a generation past 1 or a dataset missing.
func TestStartUpMatchesSequential(t *testing.T) {
	scholarly := candidate{registry.Entry{URL: "http://scholarly.example.org/sparql", Title: "Scholarly LD"},
		func() endpoint.Client { return endpoint.LocalClient{Store: synth.Scholarly(1)} }}
	tool := newStartUpTool()
	demo := demoCandidates(tool, registry.Entry{}, false)
	if served, reused := startUp(tool, []candidate{scholarly}, demo, 5, true); served != 6 || reused != 0 {
		t.Fatalf("start-up served %d datasets (%d reused), want 6 (0)", served, reused)
	}
	seq := newStartUpTool()
	for _, c := range append([]candidate{scholarly}, demo[:5]...) {
		seq.Registry.Add(c.entry)
		seq.Connect(c.entry.URL, c.client())
		if err := seq.Process(c.entry.URL); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := urls(tool), urls(seq); !slices.Equal(got, want) {
		t.Fatalf("served %v, one at a time %v", got, want)
	}
	table, matched := viewDigests(t), 0
	for _, url := range urls(seq) {
		gen, docs, vs := documents(t, tool, url)
		_, wantDocs, wantViews := documents(t, seq, url)
		if gen != 1 {
			t.Errorf("%s: generation %d after start-up, want 1", url, gen)
		}
		if docs != wantDocs {
			t.Errorf("%s: index, summary or clusters differ from a sequential Process", url)
		}
		for view, b := range vs {
			if !bytes.Equal(b, wantViews[view]) {
				t.Errorf("%s %s: %d bytes, a sequential Process renders %d", url, view, len(b), len(wantViews[view]))
			}
			if want, ok := table[url+" "+view]; ok {
				matched++
				if sum := sha256.Sum256(b); fmt.Sprintf("%x %d", sum, len(b)) != want {
					t.Errorf("%s %s: sha256+len %x %d, the table holds %s", url, view, sum, len(b), want)
				}
			}
		}
	}
	if matched == 0 {
		t.Error("no served dataset is in the digest table")
	}
}

// failing is an endpoint that is down for every query.
type failing struct{}

func (failing) Query(context.Context, string) (*sparql.Result, error) {
	return nil, errors.New("endpoint down")
}

// TestStartUpSkipsFailingCandidate: an optional candidate whose endpoint
// fails is registered, logged and skipped, and the next candidate takes
// its place — the datasets served are the ones a one-at-a-time start-up
// serves, and nothing past them is registered.
func TestStartUpSkipsFailingCandidate(t *testing.T) {
	tool := newStartUpTool()
	demo := demoCandidates(tool, registry.Entry{}, false)[:4]
	demo[1].client = func() endpoint.Client { return failing{} }
	if served, _ := startUp(tool, nil, demo, 2, true); served != 2 {
		t.Fatalf("served %d datasets, want 2", served)
	}
	if got, want := urls(tool), []string{demo[0].entry.URL, demo[2].entry.URL}; !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	for i, c := range demo {
		if registered := tool.Registry.Has(c.entry.URL); registered != (i < 3) {
			t.Errorf("candidate %d (%s) registered: %v", i, c.entry.URL, registered)
		}
	}
}

// urls lists the datasets a tool serves.
func urls(tool *core.HBOLD) []string {
	var out []string
	for _, d := range tool.Datasets() {
		out = append(out, d.URL)
	}
	return out
}
