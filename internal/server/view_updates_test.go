package server

// Tests for the presentation path across updates: after each kind of
// update every view serves exactly what a cold render of the published
// state gives, and the bundle's cache entries live exactly as long as its
// topology.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/schema"
	"repro/internal/synth"
	"repro/internal/viz"
)

// viewCase is one served view and its cold render from a state's schemas.
type viewCase struct {
	path string
	cold func(cs *cluster.Schema, sum *schema.Summary) []byte
}

func viewCases() []viewCase {
	focus := synth.ScholarlyNS + "Event"
	visible := []string{synth.ScholarlyNS + "Event", synth.ScholarlyNS + "Site", synth.ScholarlyNS + "Person"}
	shown := map[string]bool{}
	for _, c := range visible {
		shown[c] = true
	}
	return []viewCase{
		{"/view/treemap", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.TreemapView(cs, sum, 1000, 700) }},
		{"/view/sunburst", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.SunburstView(cs, sum, 800) }},
		{"/view/circlepack", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.CirclePackView(cs, sum, 800) }},
		{"/view/bundle", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.BundleView(cs, sum, "", 900) }},
		{"/view/bundle?focus=" + url.QueryEscape(focus), func(cs *cluster.Schema, sum *schema.Summary) []byte {
			return viz.BundleView(cs, sum, focus, 900)
		}},
		{"/view/cluster-graph", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.ClusterGraphView(cs, 900) }},
		{"/view/summary-graph", func(cs *cluster.Schema, sum *schema.Summary) []byte { return viz.SummaryGraphView(sum, nil, 900) }},
		{"/view/summary-graph?visible=" + url.QueryEscape(strings.Join(visible, ",")), func(cs *cluster.Schema, sum *schema.Summary) []byte {
			return viz.SummaryGraphView(sum, shown, 900)
		}},
	}
}

// TestViewsAcrossUpdates applies a sequence of updates — instances on
// fresh subjects, their deletion, retypes by DELETE/INSERT WHERE, and a
// new object-property arc — with every view cached before each one. After
// each update, every served body equals a cold render of the published
// state; the topology epoch stays exactly when the update left the
// bundle's inputs alone, and then (and only then) the bundle is served
// from the entry cached before the update.
func TestViewsAcrossUpdates(t *testing.T) {
	tool, _ := cacheTestTool(t)
	srv := New(tool)
	const prefix = "PREFIX s: <" + synth.ScholarlyNS + ">\nPREFIX r: <http://scholarly.example.org/resource/>\n"
	steps := []struct {
		name, update string
		topologyKept bool
	}{
		{"insert on fresh subjects", `INSERT DATA { r:new1 a s:Person ; s:name "n1" . r:new2 a s:Person ; s:name "n2" }`, true},
		{"delete them back", `DELETE DATA { r:new1 a s:Person ; s:name "n1" . r:new2 a s:Person ; s:name "n2" }`, true},
		{"insert again", `INSERT DATA { r:new3 a s:Person ; s:name "n3" }`, true},
		{"retype a fresh subject", `DELETE { ?s a s:Person } INSERT { ?s a s:Organisation } WHERE { ?s a s:Person ; s:name "n3" }`, true},
		{"retype a whole class", `DELETE { ?s a s:Site } INSERT { ?s a s:Place } WHERE { ?s a s:Site }`, false},
		{"add an object-property arc", `INSERT DATA { r:new3 s:presents <http://scholarly.example.org/resource/Talk/0> }`, false},
		{"move the arc to another class", `DELETE DATA { r:new3 s:presents <http://scholarly.example.org/resource/Talk/0> } ; INSERT DATA { r:new3 s:presents <http://scholarly.example.org/resource/Document/0> }`, false},
	}
	cases := viewCases()
	serve := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+sep(path)+"dataset="+url.QueryEscape(dsURL), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, step := range steps {
		for _, c := range cases {
			serve(c.path) // every view resident at the current epochs
		}
		before := tool.State(dsURL)
		reused0, _ := cluster.PartitionStats()
		if _, err := tool.ApplyUpdate(t.Context(), dsURL, prefix+step.update); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		st := tool.State(dsURL)
		if st.Generation != before.Generation+1 {
			t.Fatalf("%s: generation %d → %d", step.name, before.Generation, st.Generation)
		}
		if kept := st.Topology == before.Topology; kept != step.topologyKept {
			t.Fatalf("%s: topology epoch %d → %d at generation %d, want kept=%v", step.name, before.Topology, st.Topology, st.Generation, step.topologyKept)
		}
		if reused, _ := cluster.PartitionStats(); step.topologyKept && reused == reused0 {
			t.Errorf("%s: a count-only update ran community detection", step.name)
		}
		sum, cs, err := st.Schemas()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			misses := tool.Cache.Stats().Misses
			got := serve(c.path)
			hit := tool.Cache.Stats().Misses == misses
			if want := c.cold(cs, sum); !bytes.Equal(got, want) {
				t.Fatalf("%s: %s served %d bytes that differ from a cold render (%d bytes) at generation %d", step.name, c.path, len(got), len(want), st.Generation)
			}
			if bundle := strings.HasPrefix(c.path, "/view/bundle"); hit != (bundle && step.topologyKept) {
				t.Errorf("%s: %s was a cache %s", step.name, c.path, map[bool]string{true: "hit", false: "miss"}[hit])
			}
		}
	}
}

func sep(path string) string {
	if strings.Contains(path, "?") {
		return "&"
	}
	return "?"
}

// TestSummaryGraphVisibleSpellingsShareOneEntry: repeats, empty names,
// padding and order do not make a visible= set a different cache entry.
func TestSummaryGraphVisibleSpellingsShareOneEntry(t *testing.T) {
	tool, srv := cacheTestTool(t)
	a, b := synth.ScholarlyNS+"Event", synth.ScholarlyNS+"Site"
	var first string
	for i, vis := range []string{a + "," + a + "," + b, a + "," + b + ",", b + ", " + a, ",," + b + "," + a + "," + b} {
		code, body, _ := get(t, srv.URL+"/view/summary-graph?dataset="+url.QueryEscape(dsURL)+"&visible="+url.QueryEscape(vis))
		if code != 200 {
			t.Fatalf("visible=%s: status %d", vis, code)
		}
		if i == 0 {
			first = body
		} else if body != first {
			t.Fatalf("visible=%s: body differs from the first spelling's", vis)
		}
	}
	if st := tool.Cache.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("four spellings of one set: %d misses, %d entries; want 1 and 1", st.Misses, st.Entries)
	}
}
