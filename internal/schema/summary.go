// Package schema implements the Schema Summary: H-BOLD's pseudograph
// representation of the instantiated classes of a Linked Data source
// [Benedetti, Po & Bergamaschi, ISWC 2014]. Nodes are classes annotated
// with instance counts and datatype attributes; arcs are object
// properties between classes annotated with occurrence counts.
//
// The package also implements the presentation-layer exploration
// operations of Figure 2: focusing on a class, iteratively expanding its
// connections, and reporting the percentage of instances covered by the
// visible subgraph.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/extraction"
)

// Summary is the Schema Summary pseudograph.
type Summary struct {
	// Dataset is the endpoint URL the summary describes.
	Dataset string `json:"dataset"`
	// Nodes are the instantiated classes, sorted by descending instances.
	Nodes []Node `json:"nodes"`
	// Edges are the object properties between classes. Parallel edges
	// (different properties between the same pair) are kept distinct —
	// the Schema Summary is a pseudograph.
	Edges []Edge `json:"edges"`
	// TotalInstances is the sum of instance counts over all classes.
	TotalInstances int `json:"totalInstances"`
	// Triples is the source's triple count, carried from the index.
	Triples int `json:"triples"`

	nodeByIRI map[string]int
}

// Node is one class of the Schema Summary.
type Node struct {
	// IRI identifies the class.
	IRI string `json:"iri"`
	// Label is the display name.
	Label string `json:"label"`
	// Instances is the class's instance count.
	Instances int `json:"instances"`
	// Attributes are the datatype properties of the class.
	Attributes []extraction.PropertyCount `json:"attributes"`
}

// Edge is one object property arc between two classes.
type Edge struct {
	// From and To are class IRIs (domain and range).
	From string `json:"from"`
	To   string `json:"to"`
	// Property is the object property IRI.
	Property string `json:"property"`
	// Label is the property display name.
	Label string `json:"label"`
	// Count is the number of instance-level links.
	Count int `json:"count"`
}

// Build derives the Schema Summary from an extraction index.
func Build(ix *extraction.Index) *Summary {
	s := &Summary{Dataset: ix.Endpoint, Triples: ix.Triples}
	for _, c := range ix.Classes {
		s.Nodes = append(s.Nodes, Node{
			IRI: c.IRI, Label: c.Label, Instances: c.Instances,
			Attributes: c.DataProperties,
		})
		s.TotalInstances += c.Instances
	}
	known := make(map[string]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		known[n.IRI] = true
	}
	for _, c := range ix.Classes {
		for _, op := range c.ObjectProperties {
			if !known[op.Target] {
				continue // targets outside the instantiated classes
			}
			s.Edges = append(s.Edges, Edge{
				From: c.IRI, To: op.Target, Property: op.IRI,
				Label: localName(op.IRI), Count: op.Count,
			})
		}
	}
	sort.Slice(s.Edges, func(i, j int) bool { return compareArcs(s.Edges[i], s.Edges[j]) < 0 })
	s.reindex()
	return s
}

// compareArcs orders arcs by (From, To, Property), the order Build leaves
// Edges in and Compare walks them in.
func compareArcs(a, b Edge) int {
	if c := strings.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := strings.Compare(a.To, b.To); c != 0 {
		return c
	}
	return strings.Compare(a.Property, b.Property)
}

func (s *Summary) reindex() {
	s.nodeByIRI = make(map[string]int, len(s.Nodes))
	for i, n := range s.Nodes {
		s.nodeByIRI[n.IRI] = i
	}
}

// Reindex (re)builds the class-IRI lookup index. Build-constructed
// summaries are indexed already, and a summary decoded from JSON
// indexes itself lazily on first lookup — but that lazy write is not
// goroutine-safe, so anything that decodes a summary once and then
// shares it across goroutines (the snapshot cache) must call Reindex
// before publishing it.
func (s *Summary) Reindex() { s.reindex() }

// NodeByIRI returns the node for a class IRI.
func (s *Summary) NodeByIRI(iri string) (Node, bool) {
	i, ok := s.NodeIndex(iri)
	if !ok {
		return Node{}, false
	}
	return s.Nodes[i], true
}

// NodeIndex returns the position in Nodes of a class IRI (the last, if a
// malformed summary lists it twice).
func (s *Summary) NodeIndex(iri string) (int, bool) {
	if s.nodeByIRI == nil {
		s.reindex()
	}
	i, ok := s.nodeByIRI[iri]
	return i, ok
}

// NumClasses returns the number of class nodes.
func (s *Summary) NumClasses() int { return len(s.Nodes) }

// Degree returns the total degree (in + out, counting parallel edges) of
// a class — the measure H-BOLD uses to label clusters.
func (s *Summary) Degree(iri string) int {
	d := 0
	for _, e := range s.Edges {
		if e.From == iri {
			d++
		}
		if e.To == iri {
			d++
		}
	}
	return d
}

// Neighbors returns the classes directly connected to iri (in either
// direction), sorted by IRI, excluding iri itself.
func (s *Summary) Neighbors(iri string) []string {
	seen := map[string]bool{}
	for _, e := range s.Edges {
		if e.From == iri && e.To != iri {
			seen[e.To] = true
		}
		if e.To == iri && e.From != iri {
			seen[e.From] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EdgesBetween returns the edges with both endpoints inside the given
// class set.
func (s *Summary) EdgesBetween(classes map[string]bool) []Edge {
	var out []Edge
	for _, e := range s.Edges {
		if classes[e.From] && classes[e.To] {
			out = append(out, e)
		}
	}
	return out
}

// InstancesCovered sums the instances of the given classes.
func (s *Summary) InstancesCovered(classes map[string]bool) int {
	total := 0
	for _, n := range s.Nodes {
		if classes[n.IRI] {
			total += n.Instances
		}
	}
	return total
}

// CoveragePercent is the share of all instances covered by the classes,
// the number Figure 2 shows the user at every expansion step.
func (s *Summary) CoveragePercent(classes map[string]bool) float64 {
	if s.TotalInstances == 0 {
		return 0
	}
	return 100 * float64(s.InstancesCovered(classes)) / float64(s.TotalInstances)
}

func localName(iri string) string {
	for i := len(iri) - 1; i >= 0; i-- {
		if iri[i] == '#' || iri[i] == '/' {
			return iri[i+1:]
		}
	}
	return iri
}

// Validate checks structural invariants (every edge endpoint is a node,
// counts non-negative); it returns the first violation.
func (s *Summary) Validate() error {
	known := map[string]bool{}
	for _, n := range s.Nodes {
		if n.Instances < 0 {
			return fmt.Errorf("schema: node %s has negative instances", n.IRI)
		}
		if known[n.IRI] {
			return fmt.Errorf("schema: duplicate node %s", n.IRI)
		}
		known[n.IRI] = true
	}
	for _, e := range s.Edges {
		if !known[e.From] || !known[e.To] {
			return fmt.Errorf("schema: edge %s→%s references unknown class", e.From, e.To)
		}
		if e.Count < 0 {
			return fmt.Errorf("schema: edge %s→%s has negative count", e.From, e.To)
		}
	}
	return nil
}
