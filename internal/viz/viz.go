// Package viz binds H-BOLD's data artifacts (Schema Summary, Cluster
// Schema, explorations) to the layout algorithms and renders them as SVG
// documents and JSON view models — the Go equivalent of the tool's
// D3-based presentation layer. One view constructor exists per paper
// figure: graph views for Figure 2, treemap (Figure 4), sunburst
// (Figure 5), circle packing (Figure 6) and hierarchical edge bundling
// with domain/range highlighting (Figure 7).
package viz

import (
	"math"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/layout"
	"repro/internal/schema"
	"repro/internal/svg"
)

// Hierarchy builds the dataset→clusters→classes tree the hierarchical
// layouts (treemap, sunburst, circle pack, edge bundling) consume. Leaf
// values are instance counts; Ref carries class IRIs.
func Hierarchy(cs *cluster.Schema, s *schema.Summary) *layout.Tree {
	root := &layout.Tree{Label: datasetLabel(cs.Dataset), Ref: cs.Dataset}
	for _, c := range cs.Clusters {
		cn := &layout.Tree{Label: c.Label, Ref: "cluster:" + c.Label}
		for _, classIRI := range c.Classes {
			node, ok := s.NodeByIRI(classIRI)
			if !ok {
				continue
			}
			cn.Children = append(cn.Children, &layout.Tree{
				Label: node.Label,
				Value: float64(node.Instances),
				Ref:   classIRI,
			})
		}
		root.Children = append(root.Children, cn)
	}
	return root
}

func datasetLabel(url string) string {
	if url == "" {
		return "dataset"
	}
	return url
}

// clusterIndex maps each member class to the index of the cluster
// listing it — what cluster.Schema.ClusterOf answers, built once per
// render instead of scanning every member list per cell.
type clusterIndex map[string]int

func clustersByClass(cs *cluster.Schema) clusterIndex {
	ci := make(clusterIndex)
	for i, c := range cs.Clusters {
		for _, m := range c.Classes {
			if _, dup := ci[m]; !dup { // ClusterOf answers the first
				ci[m] = i
			}
		}
	}
	return ci
}

// of returns the cluster of a class IRI, or -1 (a cluster or dataset ref).
func (ci clusterIndex) of(classIRI string) int {
	if i, ok := ci[classIRI]; ok {
		return i
	}
	return -1
}

// --- Treemap (Figure 4) ---

// TreemapView renders the Cluster Schema treemap: each cluster is a
// colored rectangle with its classes nested inside, areas proportional
// to instance counts.
func TreemapView(cs *cluster.Schema, s *schema.Summary, w, h float64) []byte {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	cells := layout.Treemap(root, layout.Rect{X: 0, Y: 0, W: w, H: h}, 3)
	doc := svg.New(w, h)
	doc.Comment("Treemap of the Cluster Schema: " + cs.Dataset)
	clusterIdx := map[string]int{}
	for i, c := range cs.Clusters {
		clusterIdx["cluster:"+c.Label] = i
	}
	byClass := clustersByClass(cs)
	currentCluster := 0
	for _, cell := range cells {
		switch cell.Depth {
		case 0:
			doc.Rect(cell.Rect.X, cell.Rect.Y, cell.Rect.W, cell.Rect.H, "#fafafa", "#999")
		case 1:
			if ci, ok := clusterIdx[cell.Node.Ref]; ok {
				currentCluster = ci
			}
			doc.Rect(cell.Rect.X, cell.Rect.Y, cell.Rect.W, cell.Rect.H,
				svg.Lighten(svg.Color(currentCluster), 0.6), "#444", "data-kind", "cluster")
			if cell.Rect.W > 60 && cell.Rect.H > 16 {
				doc.Text(cell.Rect.X+4, cell.Rect.Y+13, 12, "start", "#000", cell.Node.Label)
			}
		default:
			ci := byClass.of(cell.Node.Ref)
			doc.Rect(cell.Rect.X, cell.Rect.Y, cell.Rect.W, cell.Rect.H,
				svg.Lighten(svg.Color(ci), 0.25), "#fff", "data-kind", "class", "data-iri", cell.Node.Ref)
			if cell.Rect.W > 50 && cell.Rect.H > 14 {
				doc.Text(cell.Rect.X+3, cell.Rect.Y+12, 10, "start", "#111",
					cell.Node.Label+" ("+strconv.FormatFloat(cell.Node.Value, 'f', 0, 64)+")")
			}
		}
	}
	return doc.Bytes()
}

// --- Sunburst (Figure 5) ---

// SunburstView renders the Cluster Schema sunburst: inner ring clusters,
// outer ring classes grouped by cluster.
func SunburstView(cs *cluster.Schema, s *schema.Summary, size float64) []byte {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	radius := size/2 - 10
	arcs := layout.Sunburst(root, radius)
	cx, cy := size/2, size/2
	doc := svg.New(size, size)
	doc.Comment("Sunburst of the Cluster Schema: " + cs.Dataset)
	clusterIdx := map[string]int{}
	for i, c := range cs.Clusters {
		clusterIdx["cluster:"+c.Label] = i
	}
	byClass := clustersByClass(cs)
	for _, a := range arcs {
		var fill string
		if a.Depth == 1 {
			fill = svg.Color(clusterIdx[a.Node.Ref])
		} else {
			fill = svg.Lighten(svg.Color(byClass.of(a.Node.Ref)), 0.35)
		}
		doc.Arc(cx, cy, a.Start, a.End, a.Inner, a.Outer, fill, "#fff",
			"data-label", a.Node.Label)
		if a.Span() > 0.12 {
			p := layout.ArcPoint(cx, cy, a.Mid(), (a.Inner+a.Outer)/2)
			doc.Text(p.X, p.Y, 9, "middle", "#000", a.Node.Label)
		}
	}
	return doc.Bytes()
}

// --- Circle packing (Figure 6) ---

// CirclePackView renders the Cluster Schema circle packing: the external
// circle is the dataset, intermediate circles the clusters, inner
// circles the classes.
func CirclePackView(cs *cluster.Schema, s *schema.Summary, size float64) []byte {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	circles := layout.CirclePack(root, size/2, size/2, size/2-8, 3)
	doc := svg.New(size, size)
	doc.Comment("Circle packing of the Cluster Schema: " + cs.Dataset)
	clusterIdx := map[string]int{}
	for i, c := range cs.Clusters {
		clusterIdx["cluster:"+c.Label] = i
	}
	byClass := clustersByClass(cs)
	for _, pc := range circles {
		switch pc.Depth {
		case 0:
			doc.Circle(pc.Circle.X, pc.Circle.Y, pc.Circle.R, "#f5f5f5", "#888")
		case 1:
			doc.Circle(pc.Circle.X, pc.Circle.Y, pc.Circle.R,
				svg.Lighten(svg.Color(clusterIdx[pc.Node.Ref]), 0.6), "#555",
				"data-kind", "cluster")
		default:
			doc.Circle(pc.Circle.X, pc.Circle.Y, pc.Circle.R,
				svg.Lighten(svg.Color(byClass.of(pc.Node.Ref)), 0.2), "#fff",
				"data-kind", "class", "data-iri", pc.Node.Ref)
			if pc.Circle.R > 14 {
				doc.Text(pc.Circle.X, pc.Circle.Y+3, 9, "middle", "#000", pc.Node.Label)
			}
		}
	}
	return doc.Bytes()
}

// --- Hierarchical edge bundling (Figure 7) ---

// BundleView renders the Schema Summary as a hierarchical edge bundling
// diagram. When focus is a class IRI, the view reproduces Figure 7's
// highlighting: the focus class bold, rdfs:Range classes of its outgoing
// properties in green, and rdfs:Domain classes of properties pointing at
// it in red.
func BundleView(cs *cluster.Schema, s *schema.Summary, focus string, size float64) []byte {
	root := Hierarchy(cs, s)
	var adjacency [][2]string
	for _, e := range s.Edges {
		if e.From == e.To {
			continue
		}
		adjacency = append(adjacency, [2]string{e.From, e.To})
	}
	radius := size/2 - 70
	eb := layout.Bundle(root, adjacency, size/2, size/2, radius, 0.85, 48)

	// classify neighbors of the focus class
	rangeOf := map[string]bool{}  // green: ranges of properties from focus
	domainOf := map[string]bool{} // red: domains of properties into focus
	if focus != "" {
		for _, e := range s.Edges {
			if e.From == focus && e.To != focus {
				rangeOf[e.To] = true
			}
			if e.To == focus && e.From != focus {
				domainOf[e.From] = true
			}
		}
	}

	doc := svg.New(size, size)
	doc.Comment("Hierarchical edge bundling of the Schema Summary: " + s.Dataset + " (focus " + focus + ")")
	var flat []float64
	for _, e := range eb.Edges {
		fromIRI := eb.Leaves[e.From].Node.Ref
		toIRI := eb.Leaves[e.To].Node.Ref
		color, width, opacity := "#9ab", 0.8, "0.45"
		if focus != "" {
			switch {
			case fromIRI == focus:
				color, width, opacity = "#2ca02c", 1.6, "0.9" // towards ranges
			case toIRI == focus:
				color, width, opacity = "#d62728", 1.6, "0.9" // from domains
			}
		}
		flat = flat[:0]
		for _, p := range e.Points {
			flat = append(flat, p.X, p.Y)
		}
		doc.Polyline(flat, color, width, "opacity", opacity)
	}
	for _, l := range eb.Leaves {
		iri := l.Node.Ref
		color, weight := "#333", "normal"
		switch {
		case iri == focus:
			color, weight = "#000", "bold"
		case rangeOf[iri]:
			color = "#2ca02c"
		case domainOf[iri]:
			color = "#d62728"
		}
		// offset labels slightly outside the circle, rotated anchor by side
		lp := layout.ArcPoint(size/2, size/2, l.Angle, radius+10)
		anchor := "start"
		if lp.X < size/2 {
			anchor = "end"
		}
		doc.Text(lp.X, lp.Y+3, 10, anchor, color, l.Node.Label, "font-weight", weight)
		doc.Circle(l.Pos.X, l.Pos.Y, 2.5, color, "none")
	}
	return doc.Bytes()
}

// --- Graph views (Figure 2) ---

// ClusterGraphView renders the Cluster Schema as a node-link diagram:
// nodes are clusters (sized by instances), arcs are inter-cluster
// connections — Figure 2 step 1.
func ClusterGraphView(cs *cluster.Schema, size float64) []byte {
	edges := make([]layout.ForceEdge, len(cs.Edges))
	for i, e := range cs.Edges {
		edges[i] = layout.ForceEdge{From: e.From, To: e.To, Weight: float64(e.Links)}
	}
	pos := place(len(cs.Clusters), edges, layout.ForceConfig{Width: size, Height: size, Seed: 42})
	doc := svg.New(size, size)
	doc.Comment("Cluster Schema graph: " + cs.Dataset + " (" + strconv.Itoa(len(cs.Clusters)) + " clusters)")
	for _, e := range cs.Edges {
		a, b := pos[e.From], pos[e.To]
		doc.Line(a.X, a.Y, b.X, b.Y, "#bbb", 1+float64(e.Links)/4)
	}
	maxInst := 1.0
	for _, c := range cs.Clusters {
		maxInst = math.Max(maxInst, float64(c.Instances))
	}
	for i, c := range cs.Clusters {
		r := 12 + 28*sqrtRatio(float64(c.Instances), maxInst)
		doc.Circle(pos[i].X, pos[i].Y, r, svg.Lighten(svg.Color(i), 0.3), "#333")
		doc.Text(pos[i].X, pos[i].Y+4, 11, "middle", "#000", c.Label)
	}
	return doc.Bytes()
}

// SummaryGraphView renders a (possibly partial) Schema Summary as a
// node-link diagram — Figure 2 steps 2–4. visible selects the classes to
// draw (nil = all); the header line reports nodes shown and instance
// coverage, as the tool does.
func SummaryGraphView(s *schema.Summary, visible map[string]bool, size float64) []byte {
	if visible == nil {
		visible = map[string]bool{}
		for _, n := range s.Nodes {
			visible[n.IRI] = true
		}
	}
	var shown []schema.Node
	idx := map[string]int{}
	for _, n := range s.Nodes {
		if visible[n.IRI] {
			idx[n.IRI] = len(shown)
			shown = append(shown, n)
		}
	}
	between := s.EdgesBetween(visible)
	edges := make([]layout.ForceEdge, len(between))
	for i, e := range between {
		edges[i] = layout.ForceEdge{From: idx[e.From], To: idx[e.To], Weight: float64(e.Count)}
	}
	pos := place(len(shown), edges, layout.ForceConfig{Width: size, Height: size, Seed: 7})

	doc := svg.New(size, size)
	doc.Comment("Schema Summary graph: " + s.Dataset)
	doc.Text(10, 18, 13, "start", "#333", strconv.Itoa(len(shown))+" classes shown — "+
		strconv.FormatFloat(s.CoveragePercent(visible), 'f', 1, 64)+"% of instances")
	for _, e := range edges {
		a, b := pos[e.From], pos[e.To]
		doc.Line(a.X, a.Y, b.X, b.Y, "#ccc", 1)
	}
	maxInst := 1.0
	for _, n := range shown {
		maxInst = math.Max(maxInst, float64(n.Instances))
	}
	for i, n := range shown {
		r := 8 + 20*sqrtRatio(float64(n.Instances), maxInst)
		doc.Circle(pos[i].X, pos[i].Y, r, "#9ecae1", "#3182bd", "data-iri", n.IRI)
		doc.Text(pos[i].X, pos[i].Y-r-3, 10, "middle", "#111", n.Label)
	}
	return doc.Bytes()
}

func sqrtRatio(v, max float64) float64 {
	if max <= 0 || v <= 0 {
		return 0
	}
	// sqrt so area, not radius, tracks the value
	return math.Sqrt(v / max)
}
