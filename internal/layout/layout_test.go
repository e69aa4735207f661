package layout

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// clusterTree builds a dataset→clusters→classes hierarchy like the ones
// viz feeds the layouts.
func clusterTree() *Tree {
	return &Tree{
		Label: "dataset",
		Children: []*Tree{
			{Label: "c1", Children: []*Tree{
				{Label: "A", Value: 100, Ref: "http://x/A"},
				{Label: "B", Value: 300, Ref: "http://x/B"},
				{Label: "C", Value: 50, Ref: "http://x/C"},
			}},
			{Label: "c2", Children: []*Tree{
				{Label: "D", Value: 500, Ref: "http://x/D"},
				{Label: "E", Value: 50, Ref: "http://x/E"},
			}},
			{Label: "c3", Children: []*Tree{
				{Label: "F", Value: 0, Ref: "http://x/F"}, // no quantity
				{Label: "G", Value: 200, Ref: "http://x/G"},
			}},
		},
	}
}

func TestTreeHelpers(t *testing.T) {
	tr := clusterTree()
	if tr.Depth() != 3 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	if n := tr.CountNodes(); n != 11 {
		t.Fatalf("CountNodes = %d", n)
	}
	leaves := tr.Leaves()
	if len(leaves) != 7 {
		t.Fatalf("Leaves = %d", len(leaves))
	}
	if v := subtreeValue(tr); v != 1200 {
		t.Fatalf("subtreeValue = %v", v)
	}
}

func TestEffectiveValuesEqualShare(t *testing.T) {
	tr := clusterTree()
	c3 := tr.Children[2]
	vals := effectiveValues(c3)
	// F has no quantity → it gets the mean of positive siblings (200)
	if vals[0] != 200 || vals[1] != 200 {
		t.Fatalf("effectiveValues = %v", vals)
	}
	// all-zero children → all equal 1
	allZero := &Tree{Children: []*Tree{{Label: "x"}, {Label: "y"}}}
	vals = effectiveValues(allZero)
	if vals[0] != 1 || vals[1] != 1 {
		t.Fatalf("all-zero effectiveValues = %v", vals)
	}
}

func TestSortChildrenByValue(t *testing.T) {
	tr := clusterTree()
	tr.SortChildrenByValue()
	if tr.Children[0].Label != "c2" { // 550
		t.Fatalf("first cluster = %s", tr.Children[0].Label)
	}
	if tr.Children[0].Children[0].Label != "D" {
		t.Fatalf("first class = %s", tr.Children[0].Children[0].Label)
	}
}

// --- treemap ---

func TestTreemapAreasProportional(t *testing.T) {
	tr := clusterTree()
	bounds := Rect{0, 0, 1000, 600}
	cells := Treemap(tr, bounds, 0)
	areaOf := map[string]float64{}
	for _, c := range cells {
		areaOf[c.Node.Label] = c.Rect.Area()
	}
	// root covers everything
	if math.Abs(areaOf["dataset"]-bounds.Area()) > 1 {
		t.Fatalf("root area = %v", areaOf["dataset"])
	}
	// class areas proportional to values: B(300) = 3 × A(100)
	if r := areaOf["B"] / areaOf["A"]; math.Abs(r-3) > 0.01 {
		t.Fatalf("B/A area ratio = %v, want 3", r)
	}
	// cluster area is the sum of its classes (padding 0)
	sum := areaOf["A"] + areaOf["B"] + areaOf["C"]
	if math.Abs(areaOf["c1"]-sum) > 1 {
		t.Fatalf("cluster c1 area %v != class sum %v", areaOf["c1"], sum)
	}
}

func TestTreemapCellsNested(t *testing.T) {
	tr := clusterTree()
	bounds := Rect{0, 0, 800, 800}
	cells := Treemap(tr, bounds, 4)
	byNode := map[*Tree]Rect{}
	for _, c := range cells {
		byNode[c.Node] = c.Rect
	}
	var check func(n *Tree)
	check = func(n *Tree) {
		for _, c := range n.Children {
			if !byNode[n].ContainsRect(byNode[c]) {
				t.Fatalf("child %s (%v) escapes parent %s (%v)", c.Label, byNode[c], n.Label, byNode[n])
			}
			check(c)
		}
	}
	check(tr)
}

func TestTreemapSiblingsDisjoint(t *testing.T) {
	tr := clusterTree()
	cells := Treemap(tr, Rect{0, 0, 1000, 700}, 0)
	var classCells []TreemapCell
	for _, c := range cells {
		if c.Depth == 2 {
			classCells = append(classCells, c)
		}
	}
	for i := 0; i < len(classCells); i++ {
		for j := i + 1; j < len(classCells); j++ {
			a, b := classCells[i].Rect, classCells[j].Rect
			overlapW := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
			overlapH := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
			if overlapW > 1e-6 && overlapH > 1e-6 {
				t.Fatalf("cells %s and %s overlap", classCells[i].Node.Label, classCells[j].Node.Label)
			}
		}
	}
}

func TestTreemapAspectReasonable(t *testing.T) {
	// squarified treemaps should avoid extreme slivers on balanced data
	tr := &Tree{Label: "r"}
	for i := 0; i < 12; i++ {
		tr.Children = append(tr.Children, &Tree{Label: fmt.Sprintf("n%d", i), Value: 100})
	}
	cells := Treemap(tr, Rect{0, 0, 900, 600}, 0)
	for _, c := range cells[1:] {
		ar := c.Rect.W / c.Rect.H
		if ar < 1 {
			ar = 1 / ar
		}
		if ar > 4 {
			t.Fatalf("cell %s aspect %v too extreme", c.Node.Label, ar)
		}
	}
}

// Property: squarify tiles the bounds exactly (areas sum, no escape).
func TestQuickSquarifyPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1 + rng.Float64()*100
		}
		bounds := Rect{0, 0, 100 + rng.Float64()*900, 100 + rng.Float64()*900}
		rects := squarify(vals, bounds)
		sum := 0.0
		for _, r := range rects {
			if !bounds.ContainsRect(r) {
				return false
			}
			sum += r.Area()
		}
		return math.Abs(sum-bounds.Area()) < bounds.Area()*0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- sunburst ---

func TestSunburstRings(t *testing.T) {
	tr := clusterTree()
	arcs := Sunburst(tr, 300)
	var clusters, classes int
	for _, a := range arcs {
		switch a.Depth {
		case 1:
			clusters++
			if a.Inner >= a.Outer {
				t.Fatalf("bad radii %+v", a)
			}
		case 2:
			classes++
		}
	}
	if clusters != 3 || classes != 7 {
		t.Fatalf("arcs = %d clusters, %d classes", clusters, classes)
	}
}

func TestSunburstAnglesPartition(t *testing.T) {
	tr := clusterTree()
	arcs := Sunburst(tr, 300)
	sumByDepth := map[int]float64{}
	for _, a := range arcs {
		if a.Span() < 0 {
			t.Fatalf("negative span %+v", a)
		}
		sumByDepth[a.Depth] += a.Span()
	}
	// clusters tile the full circle
	if math.Abs(sumByDepth[1]-2*math.Pi) > 1e-6 {
		t.Fatalf("cluster ring spans %v", sumByDepth[1])
	}
	// classes tile the full circle too (every cluster has classes)
	if math.Abs(sumByDepth[2]-2*math.Pi) > 1e-6 {
		t.Fatalf("class ring spans %v", sumByDepth[2])
	}
}

func TestSunburstChildrenWithinParentSpan(t *testing.T) {
	tr := clusterTree()
	arcs := Sunburst(tr, 300)
	arcOf := map[*Tree]SunburstArc{}
	for _, a := range arcs {
		arcOf[a.Node] = a
	}
	for _, cl := range tr.Children {
		pa := arcOf[cl]
		for _, class := range cl.Children {
			ca := arcOf[class]
			if ca.Start < pa.Start-1e-9 || ca.End > pa.End+1e-9 {
				t.Fatalf("class %s arc [%v,%v] outside cluster [%v,%v]",
					class.Label, ca.Start, ca.End, pa.Start, pa.End)
			}
		}
	}
}

func TestArcPoint(t *testing.T) {
	p := ArcPoint(0, 0, 0, 10) // 12 o'clock
	if math.Abs(p.X) > 1e-9 || math.Abs(p.Y+10) > 1e-9 {
		t.Fatalf("ArcPoint(0) = %+v", p)
	}
	p = ArcPoint(0, 0, math.Pi/2, 10) // 3 o'clock
	if math.Abs(p.X-10) > 1e-9 || math.Abs(p.Y) > 1e-9 {
		t.Fatalf("ArcPoint(π/2) = %+v", p)
	}
}

// --- circle packing ---

func TestCirclePackStructure(t *testing.T) {
	tr := clusterTree()
	circles := CirclePack(tr, 400, 400, 380, 2)
	if len(circles) != tr.CountNodes() {
		t.Fatalf("circles = %d, want %d", len(circles), tr.CountNodes())
	}
	root := circles[0]
	if root.Depth != 0 || math.Abs(root.Circle.R-380) > 1e-6 {
		t.Fatalf("root = %+v", root)
	}
}

func TestCirclePackContainment(t *testing.T) {
	tr := clusterTree()
	circles := CirclePack(tr, 0, 0, 300, 1)
	byNode := map[*Tree]Circle{}
	for _, c := range circles {
		byNode[c.Node] = c.Circle
	}
	var check func(n *Tree)
	check = func(n *Tree) {
		p := byNode[n]
		for _, c := range n.Children {
			cc := byNode[c]
			d := math.Hypot(cc.X-p.X, cc.Y-p.Y)
			if d+cc.R > p.R+1e-6 {
				t.Fatalf("child %s escapes parent %s: d+r=%v > R=%v", c.Label, n.Label, d+cc.R, p.R)
			}
			check(c)
		}
	}
	check(tr)
}

func TestCirclePackSiblingsDisjoint(t *testing.T) {
	tr := clusterTree()
	circles := CirclePack(tr, 0, 0, 300, 1)
	byNode := map[*Tree]Circle{}
	for _, c := range circles {
		byNode[c.Node] = c.Circle
	}
	var check func(n *Tree)
	check = func(n *Tree) {
		for i := 0; i < len(n.Children); i++ {
			for j := i + 1; j < len(n.Children); j++ {
				a, b := byNode[n.Children[i]], byNode[n.Children[j]]
				d := math.Hypot(a.X-b.X, a.Y-b.Y)
				if d < a.R+b.R-1e-6 {
					t.Fatalf("siblings %s and %s overlap: d=%v r1+r2=%v",
						n.Children[i].Label, n.Children[j].Label, d, a.R+b.R)
				}
			}
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(tr)
}

func TestCirclePackLeafAreasProportional(t *testing.T) {
	tr := clusterTree()
	circles := CirclePack(tr, 0, 0, 300, 0)
	var rB, rA float64
	for _, c := range circles {
		switch c.Node.Label {
		case "A":
			rA = c.Circle.R
		case "B":
			rB = c.Circle.R
		}
	}
	// B has 3× A's value → area ratio 3 → radius ratio √3
	if math.Abs(rB/rA-math.Sqrt(3)) > 0.01 {
		t.Fatalf("radius ratio = %v, want √3", rB/rA)
	}
}

// Property: packSiblings produces pairwise-disjoint circles.
func TestQuickPackSiblingsDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		circles := make([]Circle, n)
		for i := range circles {
			circles[i].R = 1 + rng.Float64()*20
		}
		packSiblings(circles)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := math.Hypot(circles[i].X-circles[j].X, circles[i].Y-circles[j].Y)
				if d < circles[i].R+circles[j].R-1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEncloseContainsAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		circles := make([]Circle, n)
		for i := range circles {
			circles[i] = Circle{X: rng.Float64()*100 - 50, Y: rng.Float64()*100 - 50, R: rng.Float64() * 10}
		}
		enc := encloseCircles(circles)
		for _, c := range circles {
			if math.Hypot(c.X-enc.X, c.Y-enc.Y)+c.R > enc.R+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- force layout ---

func TestForceLayoutBounds(t *testing.T) {
	nodes := make([]ForceNode, 20)
	var edges []ForceEdge
	for i := range nodes {
		nodes[i].Label = fmt.Sprintf("n%d", i)
		if i > 0 {
			edges = append(edges, ForceEdge{From: i - 1, To: i, Weight: 1})
		}
	}
	cfg := ForceConfig{Width: 500, Height: 400, Iterations: 100, Seed: 1}
	out := ForceLayout(nodes, edges, cfg)
	for _, n := range out {
		if n.Pos.X < 0 || n.Pos.X > 500 || n.Pos.Y < 0 || n.Pos.Y > 400 {
			t.Fatalf("node out of bounds: %+v", n.Pos)
		}
	}
}

func TestForceLayoutSpreadsNodes(t *testing.T) {
	nodes := make([]ForceNode, 10)
	out := ForceLayout(nodes, nil, ForceConfig{Width: 600, Height: 600, Iterations: 150, Seed: 2})
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			d := math.Hypot(out[i].Pos.X-out[j].Pos.X, out[i].Pos.Y-out[j].Pos.Y)
			if d < 20 {
				t.Fatalf("nodes %d,%d too close: %v", i, j, d)
			}
		}
	}
}

func TestForceLayoutPullsConnectedCloser(t *testing.T) {
	// two connected nodes vs two disconnected in a 4-node system
	nodes := make([]ForceNode, 4)
	edges := []ForceEdge{{From: 0, To: 1, Weight: 1}}
	out := ForceLayout(nodes, edges, ForceConfig{Width: 800, Height: 800, Iterations: 300, Seed: 3})
	dConn := math.Hypot(out[0].Pos.X-out[1].Pos.X, out[0].Pos.Y-out[1].Pos.Y)
	dDisc := math.Hypot(out[2].Pos.X-out[3].Pos.X, out[2].Pos.Y-out[3].Pos.Y)
	if dConn >= dDisc {
		t.Fatalf("connected pair (%v) should be closer than disconnected (%v)", dConn, dDisc)
	}
}

func TestForceLayoutDeterministic(t *testing.T) {
	nodes := make([]ForceNode, 8)
	edges := []ForceEdge{{From: 0, To: 1, Weight: 2}, {From: 2, To: 3, Weight: 1}}
	a := ForceLayout(nodes, edges, ForceConfig{Seed: 7, Iterations: 50})
	b := ForceLayout(nodes, edges, ForceConfig{Seed: 7, Iterations: 50})
	for i := range a {
		if a[i].Pos != b[i].Pos {
			t.Fatal("not deterministic")
		}
	}
}

// TestForceLayoutIgnoresNodePayload pins what viz's placement memo rests
// on: a node contributes its index and nothing else. Labels, refs and
// sizes shuffled among the nodes, or blanked, leave every position
// bit-identical, so (len(nodes), edges, cfg) determines the result.
func TestForceLayoutIgnoresNodePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		nodes := make([]ForceNode, n)
		for i := range nodes {
			nodes[i] = ForceNode{
				Label: fmt.Sprintf("n%d", i), Ref: fmt.Sprintf("http://x/%d", i),
				Size: float64(rng.Intn(5000)), Pos: Point{X: rng.Float64(), Y: rng.Float64()},
			}
		}
		var edges []ForceEdge
		for e := rng.Intn(3 * n); e > 0; e-- {
			edges = append(edges, ForceEdge{From: rng.Intn(n), To: rng.Intn(n), Weight: float64(rng.Intn(9))})
		}
		cfg := ForceConfig{Width: 900, Height: 900, Iterations: 40, Seed: int64(trial)}
		want := ForceLayout(nodes, edges, cfg)

		shuffled := append([]ForceNode(nil), nodes...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for name, variant := range map[string][]ForceNode{"shuffled": shuffled, "blank": make([]ForceNode, n)} {
			got := ForceLayout(variant, edges, cfg)
			for i := range want {
				if got[i].Pos != want[i].Pos {
					t.Fatalf("trial %d, %s payload: node %d at %+v, want %+v", trial, name, i, got[i].Pos, want[i].Pos)
				}
				if got[i].Label != variant[i].Label || got[i].Size != variant[i].Size {
					t.Fatalf("trial %d, %s payload: node %d lost its label or size", trial, name, i)
				}
			}
		}
	}
}

func TestForceLayoutSingleNodeCentered(t *testing.T) {
	out := ForceLayout([]ForceNode{{}}, nil, ForceConfig{Width: 100, Height: 100})
	if out[0].Pos.X != 50 || out[0].Pos.Y != 50 {
		t.Fatalf("single node at %+v", out[0].Pos)
	}
}

// --- edge bundling ---

func TestBundleLeafPlacement(t *testing.T) {
	tr := clusterTree()
	eb := Bundle(tr, nil, 0, 0, 100, 0.85, 16)
	if len(eb.Leaves) != 7 {
		t.Fatalf("leaves = %d", len(eb.Leaves))
	}
	for _, l := range eb.Leaves {
		r := math.Hypot(l.Pos.X, l.Pos.Y)
		if math.Abs(r-100) > 1e-6 {
			t.Fatalf("leaf %s not on circle: r=%v", l.Node.Label, r)
		}
	}
	// angles strictly increasing in hierarchy order
	for i := 1; i < len(eb.Leaves); i++ {
		if eb.Leaves[i].Angle <= eb.Leaves[i-1].Angle {
			t.Fatal("leaf angles not increasing")
		}
	}
}

func TestBundleEdgesConnectEndpoints(t *testing.T) {
	tr := clusterTree()
	adj := [][2]string{
		{"http://x/A", "http://x/D"},
		{"http://x/B", "http://x/G"},
		{"http://x/A", "http://x/B"},
	}
	eb := Bundle(tr, adj, 0, 0, 200, 0.85, 40)
	if len(eb.Edges) != 3 {
		t.Fatalf("edges = %d", len(eb.Edges))
	}
	for _, e := range eb.Edges {
		first, last := e.Points[0], e.Points[len(e.Points)-1]
		pf, pl := eb.Leaves[e.From].Pos, eb.Leaves[e.To].Pos
		if math.Hypot(first.X-pf.X, first.Y-pf.Y) > 1e-6 {
			t.Fatalf("edge start %v far from leaf %v", first, pf)
		}
		if math.Hypot(last.X-pl.X, last.Y-pl.Y) > 1e-6 {
			t.Fatalf("edge end %v far from leaf %v", last, pl)
		}
	}
}

func TestBundleBetaPullsInward(t *testing.T) {
	tr := clusterTree()
	adj := [][2]string{{"http://x/A", "http://x/D"}} // across clusters
	straightEB := Bundle(tr, adj, 0, 0, 200, 0, 64)
	bundled := Bundle(tr, adj, 0, 0, 200, 1, 64)
	// with beta=1 the path follows the hierarchy through the center, so
	// its minimum distance from the center is smaller than the chord's
	minR := func(pts []Point) float64 {
		m := math.Inf(1)
		for _, p := range pts {
			if r := math.Hypot(p.X, p.Y); r < m {
				m = r
			}
		}
		return m
	}
	if minR(bundled.Edges[0].Points) >= minR(straightEB.Edges[0].Points) {
		t.Fatalf("beta=1 path should pass closer to the center: %v vs %v",
			minR(bundled.Edges[0].Points), minR(straightEB.Edges[0].Points))
	}
}

func TestBundleSkipsUnknownRefs(t *testing.T) {
	tr := clusterTree()
	eb := Bundle(tr, [][2]string{{"http://nope", "http://x/A"}, {"http://x/A", "http://x/A"}}, 0, 0, 100, 0.8, 8)
	if len(eb.Edges) != 0 {
		t.Fatalf("edges = %d, want 0", len(eb.Edges))
	}
}

func TestHierarchyPathThroughLCA(t *testing.T) {
	tr := clusterTree()
	parent := map[*Tree]*Tree{}
	var walk func(t *Tree)
	walk = func(t *Tree) {
		for _, c := range t.Children {
			parent[c] = t
			walk(c)
		}
	}
	walk(tr)
	a := tr.Children[0].Children[0] // A in c1
	d := tr.Children[1].Children[0] // D in c2
	path := hierarchyPath(a, d, parent)
	// A → c1 → root → c2 → D
	if len(path) != 5 || path[0] != a || path[2] != tr || path[4] != d {
		t.Fatalf("path = %v", path)
	}
	// same cluster: A → c1 → B
	b := tr.Children[0].Children[1]
	path = hierarchyPath(a, b, parent)
	if len(path) != 3 || path[1] != tr.Children[0] {
		t.Fatalf("intra-cluster path = %v", path)
	}
}

func TestSampleBSplineEndpoints(t *testing.T) {
	ctrl := []Point{{0, 0}, {50, 100}, {100, 0}}
	pts := sampleBSpline(ctrl, 21)
	if len(pts) != 21 {
		t.Fatalf("samples = %d", len(pts))
	}
	if math.Hypot(pts[0].X, pts[0].Y) > 1e-6 {
		t.Fatalf("start = %+v", pts[0])
	}
	if math.Hypot(pts[20].X-100, pts[20].Y) > 1e-6 {
		t.Fatalf("end = %+v", pts[20])
	}
}
