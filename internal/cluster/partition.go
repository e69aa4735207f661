package cluster

import (
	"slices"
	"sync"

	"repro/internal/community"
)

// partitionBound is how many partitions the process keeps: one per
// (dataset, options) that is being updated, with least-recently-used
// replacement beyond that.
const partitionBound = 64

// weightedEdge is one Schema Summary arc as the clustering graph receives
// it: endpoints by node index, weight the link count (at least 1).
type weightedEdge struct {
	u, v int
	w    float64
}

// memoPartition is one community-detection result together with the
// inputs that determine it. The algorithms read the graph and the options
// and nothing else, and the graph is built from (n, edges) in edge order,
// so that triple is the whole key: part and modularity are bit for bit
// what a fresh call computes.
type memoPartition struct {
	n          int
	edges      []weightedEdge
	opts       Options
	part       community.Partition
	modularity float64
}

// partitions is the process-wide memo behind Build. An update that moves
// instance counts, or adds instances and datatype properties, changes no
// key here; the graph is rebuilt and clustered again only when a class or
// an arc comes or goes, a link count changes, or the classes reorder.
var partitions struct {
	mu               sync.Mutex
	recent           []*memoPartition // most recently used first, at most partitionBound
	reused, computed uint64
}

// partition returns the partition opts.Algorithm finds on the graph of n
// nodes joined by edges, and its modularity, from the memo when it holds
// exactly these inputs. Keys are compared field by field, never by hash,
// so a reuse cannot be a collision. The algorithm runs outside the lock;
// two misses racing on one key both compute the same partition. The
// returned partition is shared and read-only; partition keeps edges,
// which the caller must not modify.
func partition(n int, edges []weightedEdge, opts Options) (community.Partition, float64) {
	p := &partitions
	p.mu.Lock()
	for i, e := range p.recent {
		if e.n == n && e.opts == opts && slices.Equal(e.edges, edges) {
			copy(p.recent[1:i+1], p.recent[:i])
			p.recent[0] = e
			p.reused++
			p.mu.Unlock()
			return e.part, e.modularity
		}
	}
	p.computed++
	p.mu.Unlock()

	g := community.NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v, e.w)
	}
	var part community.Partition
	switch opts.Algorithm {
	case Louvain:
		part = community.Louvain(g, opts.Seed)
	case LabelPropagation:
		part = community.LabelPropagation(g, opts.Seed)
	case GirvanNewman:
		part = community.GirvanNewman(g)
	}
	e := &memoPartition{n: n, edges: edges, opts: opts, part: part, modularity: community.Modularity(g, part)}

	p.mu.Lock()
	if len(p.recent) < partitionBound {
		p.recent = append(p.recent, nil)
	}
	copy(p.recent[1:], p.recent)
	p.recent[0] = e
	p.mu.Unlock()
	return e.part, e.modularity
}

// PartitionStats reports how many Build calls took their partition from
// the memo and how many ran community detection.
func PartitionStats() (reused, computed uint64) {
	partitions.mu.Lock()
	defer partitions.mu.Unlock()
	return partitions.reused, partitions.computed
}
