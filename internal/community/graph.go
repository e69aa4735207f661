// Package community implements the community detection algorithms H-BOLD
// applies to the Schema Summary to build the Cluster Schema [Po &
// Malvezzi, J.UCS 2018]: Louvain modularity optimization (the method the
// deployed tool uses) plus label propagation and Girvan–Newman baselines
// for the ablation benchmarks, and the modularity quality measure.
//
// All algorithms are deterministic: ties are broken by node id and any
// randomized order is driven by an explicit seed.
package community

import (
	"fmt"
	"sort"
)

// Graph is a weighted undirected multigraph on dense integer nodes
// (0..N-1). Parallel edges accumulate weight; self loops are allowed and
// count twice in degree, per the standard modularity convention.
type Graph struct {
	n       int
	adj     []map[int]float64
	total   float64 // sum of all edge weights (each undirected edge once)
	degrees []float64
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	g := &Graph{n: n, adj: make([]map[int]float64, n), degrees: make([]float64, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]float64)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// TotalWeight returns the sum of edge weights (undirected edges counted
// once, self loops once).
func (g *Graph) TotalWeight() float64 { return g.total }

// AddEdge adds weight w between u and v (accumulating over repeated
// calls). Self loops are supported.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("community: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if w <= 0 {
		return
	}
	g.adj[u][v] += w
	if u != v {
		g.adj[v][u] += w
		g.degrees[u] += w
		g.degrees[v] += w
	} else {
		// a self loop contributes 2w to the degree
		g.degrees[u] += 2 * w
	}
	g.total += w
}

// Weight returns the edge weight between u and v (0 if absent).
func (g *Graph) Weight(u, v int) float64 { return g.adj[u][v] }

// Degree returns the weighted degree of u (self loops count twice).
func (g *Graph) Degree(u int) float64 { return g.degrees[u] }

// Neighbors returns u's neighbors sorted by id (excluding u itself).
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		if v != u {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Edges streams each undirected edge once (u <= v) in sorted order.
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	for u := 0; u < g.n; u++ {
		vs := make([]int, 0, len(g.adj[u]))
		for v := range g.adj[u] {
			if v >= u {
				vs = append(vs, v)
			}
		}
		sort.Ints(vs)
		for _, v := range vs {
			fn(u, v, g.adj[u][v])
		}
	}
}

// EdgeCount returns the number of distinct undirected edges (self loops
// included).
func (g *Graph) EdgeCount() int {
	n := 0
	g.Edges(func(int, int, float64) { n++ })
	return n
}

// Partition maps each node to its community id. Community ids are dense
// (0..K-1) after Normalize.
type Partition []int

// NumCommunities returns the number of distinct communities.
func (p Partition) NumCommunities() int {
	seen := map[int]bool{}
	for _, c := range p {
		seen[c] = true
	}
	return len(seen)
}

// Normalize renumbers communities densely in order of first appearance
// and returns the number of communities.
func (p Partition) Normalize() int {
	remap := map[int]int{}
	next := 0
	for i, c := range p {
		nc, ok := remap[c]
		if !ok {
			nc = next
			remap[c] = nc
			next++
		}
		p[i] = nc
	}
	return next
}

// Members returns the nodes of each community, sorted, indexed by
// community id. The partition must be normalized.
func (p Partition) Members() [][]int {
	k := 0
	for _, c := range p {
		if c+1 > k {
			k = c + 1
		}
	}
	out := make([][]int, k)
	for i, c := range p {
		out[c] = append(out[c], i)
	}
	return out
}

// Modularity computes Newman modularity Q of the partition on g.
// Community ids must be non-negative; the sums run in id order, so equal
// inputs give the same Q to the last bit.
func Modularity(g *Graph, p Partition) float64 {
	if g.total == 0 {
		return 0
	}
	m2 := 2 * g.total
	// Q = Σ_ij [A_ij − k_i k_j / 2m] δ(c_i,c_j) / 2m over ordered pairs,
	// with A_uu = 2w for a self loop of weight w (matching Degree).
	k := 0
	for _, c := range p {
		k = max(k, c+1)
	}
	in := make([]float64, k)
	deg := make([]float64, k)
	for u := 0; u < g.n; u++ {
		deg[p[u]] += g.degrees[u]
	}
	g.Edges(func(u, v int, w float64) {
		if p[u] == p[v] {
			in[p[u]] += w // ordered pairs contribute 2w; factored below
		}
	})
	q := 0.0
	for c := range k {
		q += 2 * in[c] / m2
		q -= (deg[c] / m2) * (deg[c] / m2)
	}
	return q
}
