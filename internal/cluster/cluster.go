// Package cluster implements the Cluster Schema: the high-level
// visualization H-BOLD derives from the Schema Summary by community
// detection [Po & Malvezzi, J.UCS 2018]. Classes are grouped into
// disjoint clusters (a node never belongs to several clusters), cluster
// labels are taken from the highest-degree class, and arcs connect
// clusters whose classes are linked in the Schema Summary.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/schema"
)

// Algorithm selects the community detection method.
type Algorithm string

// Supported community detection algorithms. Louvain is what the deployed
// tool uses; the others are ablation baselines.
const (
	Louvain          Algorithm = "louvain"
	LabelPropagation Algorithm = "label-propagation"
	GirvanNewman     Algorithm = "girvan-newman"
)

// Schema is the Cluster Schema of one dataset.
type Schema struct {
	// Dataset is the endpoint URL.
	Dataset string `json:"dataset"`
	// Algorithm records how the clustering was computed.
	Algorithm Algorithm `json:"algorithm"`
	// Clusters are the groups of classes, sorted by descending instances.
	Clusters []Cluster `json:"clusters"`
	// Edges connect clusters (by index into Clusters).
	Edges []Edge `json:"edges"`
	// Modularity is the quality of the underlying partition.
	Modularity float64 `json:"modularity"`
	// TotalInstances carries over from the Schema Summary.
	TotalInstances int `json:"totalInstances"`
}

// Cluster is one group of classes.
type Cluster struct {
	// Label is the display name: the label of the highest-degree class
	// in the cluster (degree = in + out in the Schema Summary).
	Label string `json:"label"`
	// Classes are the member class IRIs, sorted by descending instances.
	Classes []string `json:"classes"`
	// Instances is the sum of member instance counts.
	Instances int `json:"instances"`
}

// Edge is an aggregated connection between two clusters.
type Edge struct {
	// From and To are indexes into Clusters.
	From int `json:"from"`
	To   int `json:"to"`
	// Links is the number of Schema Summary edges aggregated here.
	Links int `json:"links"`
	// Count is the total instance-level link count.
	Count int `json:"count"`
}

// Options configures clustering.
type Options struct {
	// Algorithm defaults to Louvain.
	Algorithm Algorithm
	// Seed drives the algorithm's visiting order.
	Seed int64
}

// Build computes the Cluster Schema of a Schema Summary. The partition
// comes from the memo when the clustering graph and options are exactly
// those of a recent call (see partition); labels, member and cluster order,
// instance totals and aggregated edges are always derived from s.
func Build(s *schema.Summary, opts Options) (*Schema, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = Louvain
	}
	// canon[i] is where the lookup by IRI lands for node i: i itself, or
	// the last listing of a class a malformed summary lists twice
	canon := make([]int, len(s.Nodes))
	for i, node := range s.Nodes {
		canon[i], _ = s.NodeIndex(node.IRI)
	}
	// the clustering graph is undirected and weighted by link count;
	// log-ish dampening is unnecessary at Schema Summary scale. degree is
	// H-BOLD's label measure: in + out, parallel edges counted.
	edges := make([]weightedEdge, len(s.Edges))
	degree := make([]int, len(s.Nodes))
	for i, e := range s.Edges {
		u, okU := s.NodeIndex(e.From)
		v, okV := s.NodeIndex(e.To)
		if !okU || !okV {
			return nil, fmt.Errorf("cluster: edge references unknown class %s→%s", e.From, e.To)
		}
		w := float64(e.Count)
		if w <= 0 {
			w = 1
		}
		edges[i] = weightedEdge{u, v, w}
		degree[u]++
		degree[v]++
	}
	switch opts.Algorithm {
	case Louvain, LabelPropagation, GirvanNewman:
	default:
		return nil, fmt.Errorf("cluster: unknown algorithm %q", opts.Algorithm)
	}
	part, modularity := partition(len(s.Nodes), edges, opts)

	cs := &Schema{
		Dataset:        s.Dataset,
		Algorithm:      opts.Algorithm,
		Modularity:     modularity,
		TotalInstances: s.TotalInstances,
	}
	// build clusters with degree-based labels
	type clusterAccum struct {
		members   []int
		instances int
		label     string
	}
	before := func(a, b int) int { // descending instances, then IRI
		na, nb := &s.Nodes[canon[a]], &s.Nodes[canon[b]]
		if na.Instances != nb.Instances {
			return cmp.Compare(nb.Instances, na.Instances)
		}
		return strings.Compare(na.IRI, nb.IRI)
	}
	var accum []clusterAccum
	for _, m := range part.Members() {
		if len(m) == 0 {
			continue
		}
		ca := clusterAccum{members: m}
		maxDegree := -1
		for _, i := range m {
			ca.instances += s.Nodes[i].Instances
			if d := degree[canon[i]]; d > maxDegree {
				maxDegree, ca.label = d, s.Nodes[i].Label
			}
		}
		slices.SortFunc(ca.members, before)
		accum = append(accum, ca)
	}
	// sort clusters by descending instances then label for stable output
	sort.Slice(accum, func(i, j int) bool {
		if accum[i].instances != accum[j].instances {
			return accum[i].instances > accum[j].instances
		}
		return accum[i].label < accum[j].label
	})
	clusterOf := make([]int, len(s.Nodes)) // by canonical node index
	for ci, ca := range accum {
		classes := make([]string, len(ca.members))
		for k, i := range ca.members {
			classes[k] = s.Nodes[i].IRI
			clusterOf[canon[i]] = ci
		}
		cs.Clusters = append(cs.Clusters, Cluster{Label: ca.label, Classes: classes, Instances: ca.instances})
	}

	// aggregate inter-cluster edges
	agg := map[[2]int]*Edge{}
	for i, e := range edges {
		cu, cv := clusterOf[e.u], clusterOf[e.v]
		if cu == cv {
			continue
		}
		key := [2]int{cu, cv}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		a, ok := agg[key]
		if !ok {
			a = &Edge{From: key[0], To: key[1]}
			agg[key] = a
		}
		a.Links++
		a.Count += s.Edges[i].Count
	}
	keys := make([][2]int, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		cs.Edges = append(cs.Edges, *agg[k])
	}
	return cs, nil
}

// NumClusters returns the number of clusters.
func (cs *Schema) NumClusters() int { return len(cs.Clusters) }

// ClusterOf returns the index of the cluster containing the class, or -1.
func (cs *Schema) ClusterOf(classIRI string) int {
	for i, c := range cs.Clusters {
		for _, m := range c.Classes {
			if m == classIRI {
				return i
			}
		}
	}
	return -1
}

// Validate checks the disjointness invariant the paper calls out ("the
// possibility that a node belongs to several Clusters is avoided") and
// index bounds.
func (cs *Schema) Validate() error {
	seen := map[string]int{}
	for i, c := range cs.Clusters {
		if len(c.Classes) == 0 {
			return fmt.Errorf("cluster: empty cluster %d", i)
		}
		for _, m := range c.Classes {
			if prev, dup := seen[m]; dup {
				return fmt.Errorf("cluster: class %s in clusters %d and %d", m, prev, i)
			}
			seen[m] = i
		}
	}
	for _, e := range cs.Edges {
		if e.From < 0 || e.From >= len(cs.Clusters) || e.To < 0 || e.To >= len(cs.Clusters) {
			return fmt.Errorf("cluster: edge %d→%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("cluster: self edge on cluster %d", e.From)
		}
	}
	return nil
}
