package viz

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/extraction"
	"repro/internal/layout"
	"repro/internal/schema"
)

// The JSON view models mirror what the deployed tool ships to the
// browser for D3 to render. They make the layouts consumable by any
// client, not only the SVG renderer.

// TreemapModel is the JSON form of the Figure 4 treemap.
type TreemapModel struct {
	Dataset string        `json:"dataset"`
	Cells   []TreemapCell `json:"cells"`
}

// TreemapCell is one rectangle with its hierarchy context.
type TreemapCell struct {
	Label     string  `json:"label"`
	IRI       string  `json:"iri,omitempty"`
	Depth     int     `json:"depth"` // 0 dataset, 1 cluster, 2 class
	Cluster   int     `json:"cluster"`
	Instances float64 `json:"instances"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	W         float64 `json:"w"`
	H         float64 `json:"h"`
}

// TreemapModelOf computes the treemap geometry as data.
func TreemapModelOf(cs *cluster.Schema, s *schema.Summary, w, h float64) *TreemapModel {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	cells := layout.Treemap(root, layout.Rect{W: w, H: h}, 3)
	m := &TreemapModel{Dataset: cs.Dataset}
	byClass := clustersByClass(cs)
	for _, c := range cells {
		m.Cells = append(m.Cells, TreemapCell{
			Label: c.Node.Label, IRI: classIRI(c.Node.Ref),
			Depth: c.Depth, Cluster: byClass.of(c.Node.Ref),
			Instances: c.Node.Value,
			X:         c.Rect.X, Y: c.Rect.Y, W: c.Rect.W, H: c.Rect.H,
		})
	}
	return m
}

// SunburstModel is the JSON form of the Figure 5 sunburst.
type SunburstModel struct {
	Dataset string        `json:"dataset"`
	Arcs    []SunburstArc `json:"arcs"`
}

// SunburstArc is one ring slice.
type SunburstArc struct {
	Label   string  `json:"label"`
	IRI     string  `json:"iri,omitempty"`
	Depth   int     `json:"depth"`
	Cluster int     `json:"cluster"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Inner   float64 `json:"inner"`
	Outer   float64 `json:"outer"`
}

// SunburstModelOf computes the sunburst geometry as data.
func SunburstModelOf(cs *cluster.Schema, s *schema.Summary, radius float64) *SunburstModel {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	m := &SunburstModel{Dataset: cs.Dataset}
	byClass := clustersByClass(cs)
	for _, a := range layout.Sunburst(root, radius) {
		m.Arcs = append(m.Arcs, SunburstArc{
			Label: a.Node.Label, IRI: classIRI(a.Node.Ref),
			Depth: a.Depth, Cluster: byClass.of(a.Node.Ref),
			Start: a.Start, End: a.End, Inner: a.Inner, Outer: a.Outer,
		})
	}
	return m
}

// CirclePackModel is the JSON form of the Figure 6 circle packing.
type CirclePackModel struct {
	Dataset string         `json:"dataset"`
	Circles []PackedCircle `json:"circles"`
}

// PackedCircle is one circle.
type PackedCircle struct {
	Label   string  `json:"label"`
	IRI     string  `json:"iri,omitempty"`
	Depth   int     `json:"depth"`
	Cluster int     `json:"cluster"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	R       float64 `json:"r"`
}

// CirclePackModelOf computes the circle packing geometry as data.
func CirclePackModelOf(cs *cluster.Schema, s *schema.Summary, size float64) *CirclePackModel {
	root := Hierarchy(cs, s)
	root.SortChildrenByValue()
	m := &CirclePackModel{Dataset: cs.Dataset}
	byClass := clustersByClass(cs)
	for _, pc := range layout.CirclePack(root, size/2, size/2, size/2-8, 3) {
		m.Circles = append(m.Circles, PackedCircle{
			Label: pc.Node.Label, IRI: classIRI(pc.Node.Ref),
			Depth: pc.Depth, Cluster: byClass.of(pc.Node.Ref),
			X: pc.Circle.X, Y: pc.Circle.Y, R: pc.Circle.R,
		})
	}
	return m
}

// classIRI filters out the synthetic cluster/dataset refs so only class
// IRIs appear in the models.
func classIRI(ref string) string {
	if ref == "" || len(ref) > 8 && ref[:8] == "cluster:" {
		return ""
	}
	return ref
}

// ClassDetail is the class panel of Figure 2 step 2: the attributes of a
// class and its incoming and outgoing properties with target classes and
// counts.
type ClassDetail struct {
	IRI       string                     `json:"iri"`
	Label     string                     `json:"label"`
	Instances int                        `json:"instances"`
	Cluster   int                        `json:"cluster"`
	Degree    int                        `json:"degree"`
	Attribs   []extraction.PropertyCount `json:"attributes"`
	Outgoing  []ClassLink                `json:"outgoing"`
	Incoming  []ClassLink                `json:"incoming"`
}

// ClassLink is one property arc seen from a class.
type ClassLink struct {
	Property string `json:"property"`
	Label    string `json:"label"`
	Other    string `json:"other"` // the class at the far end
	Count    int    `json:"count"`
}

// ClassDetailOf assembles the detail panel for a class.
func ClassDetailOf(cs *cluster.Schema, s *schema.Summary, classIRI string) (*ClassDetail, bool) {
	node, ok := s.NodeByIRI(classIRI)
	if !ok {
		return nil, false
	}
	d := &ClassDetail{
		IRI: node.IRI, Label: node.Label, Instances: node.Instances,
		Cluster: cs.ClusterOf(classIRI), Degree: s.Degree(classIRI),
		Attribs: node.Attributes,
	}
	for _, e := range s.Edges {
		if e.From == classIRI {
			d.Outgoing = append(d.Outgoing, ClassLink{
				Property: e.Property, Label: e.Label, Other: e.To, Count: e.Count,
			})
		}
		if e.To == classIRI && e.From != classIRI {
			d.Incoming = append(d.Incoming, ClassLink{
				Property: e.Property, Label: e.Label, Other: e.From, Count: e.Count,
			})
		}
	}
	sortLinks := func(ls []ClassLink) {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].Property != ls[j].Property {
				return ls[i].Property < ls[j].Property
			}
			return ls[i].Other < ls[j].Other
		})
	}
	sortLinks(d.Outgoing)
	sortLinks(d.Incoming)
	return d, true
}
