package viz

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/schema"
	"repro/internal/synth"
)

func artifacts(t testing.TB) (*cluster.Schema, *schema.Summary) {
	t.Helper()
	set := extractSet(t, "scholarly", synth.Scholarly(1))
	return set.cs, set.s
}

func TestHierarchyShape(t *testing.T) {
	cs, s := artifacts(t)
	root := Hierarchy(cs, s)
	if len(root.Children) != cs.NumClusters() {
		t.Fatalf("clusters = %d, want %d", len(root.Children), cs.NumClusters())
	}
	if len(root.Leaves()) != s.NumClasses() {
		t.Fatalf("leaves = %d, want %d", len(root.Leaves()), s.NumClasses())
	}
	// leaf values are instance counts
	total := 0.0
	for _, l := range root.Leaves() {
		total += l.Value
	}
	if int(total) != s.TotalInstances {
		t.Fatalf("leaf values sum %v, want %d", total, s.TotalInstances)
	}
}

func validSVG(t *testing.T, out string) {
	t.Helper()
	if !strings.HasPrefix(out, `<svg xmlns="http://www.w3.org/2000/svg"`) {
		t.Fatalf("not an svg document: %.80s", out)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("unterminated svg")
	}
	if strings.Count(out, "<") < 10 {
		t.Fatal("suspiciously empty svg")
	}
}

func TestTreemapView(t *testing.T) {
	cs, s := artifacts(t)
	out := string(TreemapView(cs, s, 1000, 700))
	validSVG(t, out)
	if !strings.Contains(out, `data-kind="cluster"`) || !strings.Contains(out, `data-kind="class"`) {
		t.Fatal("treemap missing cluster/class cells")
	}
	// the biggest class shows its instance count
	if !strings.Contains(out, "Person (1200)") {
		t.Fatal("Person cell label missing")
	}
}

func TestSunburstView(t *testing.T) {
	cs, s := artifacts(t)
	out := string(SunburstView(cs, s, 800))
	validSVG(t, out)
	if strings.Count(out, "<path") < s.NumClasses() {
		t.Fatalf("sunburst has too few arcs: %d", strings.Count(out, "<path"))
	}
}

func TestCirclePackView(t *testing.T) {
	cs, s := artifacts(t)
	out := string(CirclePackView(cs, s, 800))
	validSVG(t, out)
	// one circle per node of the hierarchy (root + clusters + classes)
	want := 1 + cs.NumClusters() + s.NumClasses()
	if got := strings.Count(out, "<circle"); got < want {
		t.Fatalf("circles = %d, want >= %d", got, want)
	}
}

func TestBundleViewFocusColors(t *testing.T) {
	cs, s := artifacts(t)
	out := string(BundleView(cs, s, synth.ScholarlyNS+"Event", 900))
	validSVG(t, out)
	// Figure 7 highlighting: green range edges, red domain edges, bold focus
	if !strings.Contains(out, "#2ca02c") {
		t.Fatal("no green (range) highlight")
	}
	if !strings.Contains(out, "#d62728") {
		t.Fatal("no red (domain) highlight")
	}
	if !strings.Contains(out, `font-weight="bold"`) {
		t.Fatal("focus class not bold")
	}
	if !strings.Contains(out, ">Event</text>") {
		t.Fatal("Event label missing")
	}
}

func TestBundleViewNoFocus(t *testing.T) {
	cs, s := artifacts(t)
	out := string(BundleView(cs, s, "", 900))
	validSVG(t, out)
	if strings.Contains(out, `font-weight="bold"`) {
		t.Fatal("no class should be bold without focus")
	}
}

func TestClusterGraphView(t *testing.T) {
	cs, _ := artifacts(t)
	out := string(ClusterGraphView(cs, 900))
	validSVG(t, out)
	if got := strings.Count(out, "<circle"); got != cs.NumClusters() {
		t.Fatalf("cluster nodes = %d, want %d", got, cs.NumClusters())
	}
}

func TestSummaryGraphViewFull(t *testing.T) {
	_, s := artifacts(t)
	out := string(SummaryGraphView(s, nil, 900))
	validSVG(t, out)
	if !strings.Contains(out, "100.0% of instances") {
		t.Fatal("full view must report 100% coverage")
	}
	if got := strings.Count(out, "<circle"); got != s.NumClasses() {
		t.Fatalf("class nodes = %d, want %d", got, s.NumClasses())
	}
}

func TestSummaryGraphViewPartialCoverage(t *testing.T) {
	_, s := artifacts(t)
	e, err := schema.NewExploration(s, synth.ScholarlyNS+"Event")
	if err != nil {
		t.Fatal(err)
	}
	e.Expand(synth.ScholarlyNS + "Event")
	out := string(SummaryGraphView(s, e.VisibleSet(), 900))
	validSVG(t, out)
	if strings.Contains(out, "100.0% of instances") {
		t.Fatal("partial view must not report 100%")
	}
	if !strings.Contains(out, "classes shown") {
		t.Fatal("header missing")
	}
}

func TestViewsEscapeXML(t *testing.T) {
	// labels with XML special characters must be escaped
	cs := &cluster.Schema{
		Dataset: "x",
		Clusters: []cluster.Cluster{
			{Label: `A<&>"B`, Classes: []string{"http://x/a"}, Instances: 5},
		},
	}
	s := &schema.Summary{
		Dataset:        "x",
		Nodes:          []schema.Node{{IRI: "http://x/a", Label: `A<&>"B`, Instances: 5}},
		TotalInstances: 5,
	}
	out := string(TreemapView(cs, s, 400, 300))
	if strings.Contains(out, `>A<&>`) {
		t.Fatal("unescaped XML in output")
	}
	if !strings.Contains(out, "&lt;") {
		t.Fatal("expected escaped label")
	}
}
