package viz

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/synth"
)

// goldenSet is one dataset of the differential table: the scholarly
// example and the first eight indexable datasets of synth.Corpus(1)
// (8–59 classes each), extracted and clustered the way artifacts does.
type goldenSet struct {
	name string
	cs   *cluster.Schema
	s    *schema.Summary
}

func goldenSets(t testing.TB) []goldenSet {
	t.Helper()
	sets := []goldenSet{extractSet(t, "scholarly", synth.Scholarly(1))}
	for _, d := range synth.Corpus(1) {
		if len(sets) == 9 {
			break
		}
		if d.Indexable {
			sets = append(sets, extractSet(t, d.URL, synth.BuildStore(d)))
		}
	}
	return sets
}

func extractSet(t testing.TB, name string, st *store.Store) goldenSet {
	t.Helper()
	ix, err := extraction.New().Extract(context.Background(), endpoint.LocalClient{Store: st}, name, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	s := schema.Build(ix)
	cs, err := cluster.Build(s, cluster.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return goldenSet{name, cs, s}
}

// view is one rendering of the table: the six views the server routes,
// the bundle with and without a focus class, the summary graph whole and
// restricted to every other class.
type view struct {
	name   string
	render func() []byte
}

func views(cs *cluster.Schema, s *schema.Summary) []view {
	visible := map[string]bool{}
	for i, n := range s.Nodes {
		if i%2 == 0 {
			visible[n.IRI] = true
		}
	}
	return []view{
		{"treemap", func() []byte { return TreemapView(cs, s, 1000, 700) }},
		{"sunburst", func() []byte { return SunburstView(cs, s, 800) }},
		{"circlepack", func() []byte { return CirclePackView(cs, s, 800) }},
		{"bundle", func() []byte { return BundleView(cs, s, "", 900) }},
		{"bundle-focus", func() []byte { return BundleView(cs, s, s.Nodes[0].IRI, 900) }},
		{"cluster-graph", func() []byte { return ClusterGraphView(cs, 900) }},
		{"summary-graph", func() []byte { return SummaryGraphView(s, nil, 900) }},
		{"summary-graph-visible", func() []byte { return SummaryGraphView(s, visible, 900) }},
	}
}

// TestViewsMatchParentDigests is the proof that the append-only renderer
// moved no byte: testdata/parent_views.sha256 holds, per dataset and
// view, the SHA-256 and length of what the fmt-based renderer of the
// parent commit (e2cc97e) produced for the same inputs. The file is a
// record, not a golden to regenerate: a mismatch is a changed view.
// Every view renders twice, so the graph views are checked both freshly
// placed and from the placement memo.
func TestViewsMatchParentDigests(t *testing.T) {
	f, err := os.Open("testdata/parent_views.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{} // "dataset view" -> "sha256 length"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[fields[0]+" "+fields[1]] = fields[2] + " " + fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	resetPlacements()
	checked := 0
	for _, set := range goldenSets(t) {
		for _, v := range views(set.cs, set.s) {
			key := set.name + " " + v.name
			for _, how := range []string{"first render", "second render"} {
				out := v.render()
				sum := sha256.Sum256(out)
				got := hex.EncodeToString(sum[:]) + " " + strconv.Itoa(len(out))
				if got != want[key] {
					t.Errorf("%s (%s): sha256+len %s, parent rendered %s", key, how, got, want[key])
				}
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Fatalf("checked %d views, the record holds %d", checked, len(want))
	}
}

// BenchmarkRender prices one render of each view (ns/op, B/op,
// allocs/op) over the first corpus dataset, whose views are 14–30 kB.
// The two graph views run with the placement memo warm, as all but the
// first render after a topology change do; BenchmarkPlace prices that
// first one.
func BenchmarkRender(b *testing.B) {
	d := synth.Corpus(1)[0]
	set := extractSet(b, d.URL, synth.BuildStore(d))
	for _, v := range views(set.cs, set.s) {
		if strings.HasSuffix(v.name, "-focus") || strings.HasSuffix(v.name, "-visible") {
			continue
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(v.render())))
			for b.Loop() {
				v.render()
			}
		})
	}
}

// BenchmarkPlace is the force simulation behind the summary graph of the
// same dataset: what a reuse saves.
func BenchmarkPlace(b *testing.B) {
	d := synth.Corpus(1)[0]
	set := extractSet(b, d.URL, synth.BuildStore(d))
	for b.Loop() {
		resetPlacements()
		SummaryGraphView(set.s, nil, 900)
	}
}
