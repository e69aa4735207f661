package viz

import (
	"slices"
	"sync"

	"repro/internal/layout"
)

// placementBound is how many force-directed placements the process
// keeps. A dataset has two that every user sees (cluster graph, full
// summary graph); the rest are partial summary graphs, whose visible=
// sets are request input and so unbounded — hence a fixed count with
// least-recently-used replacement rather than one entry per key.
const placementBound = 64

// placement is one memoized layout.ForceLayout result together with the
// inputs that determine it. ForceLayout reads its nodes only for their
// count (labels, refs and sizes are carried through, never consulted —
// TestForceLayoutIgnoresNodePayload in internal/layout), so (n, edges,
// cfg) is the whole key and pos is bit for bit what a fresh call places.
type placement struct {
	n     int
	edges []layout.ForceEdge
	cfg   layout.ForceConfig
	pos   []layout.Point
}

// placements is the process-wide memo behind the two graph views. An
// update that moves instance counts, or adds instances of existing
// classes, changes no key here; 300 cooling steps over all node pairs
// are only paid again when a graph gains or loses a node or an edge, or
// an edge's weight changes.
var placements struct {
	mu               sync.Mutex
	recent           []*placement // most recently used first, at most placementBound
	reused, computed uint64
}

// place returns the positions layout.ForceLayout gives n nodes joined by
// edges under cfg, from the memo when it holds exactly these inputs.
// Keys are compared field by field, never by hash, so a reuse cannot be
// a collision. The layout runs outside the lock: concurrent misses do
// not queue behind one another's simulation, and two racing on one key
// both compute the same positions. The returned slice is shared and
// read-only; place keeps edges, which the caller must not modify.
func place(n int, edges []layout.ForceEdge, cfg layout.ForceConfig) []layout.Point {
	p := &placements
	p.mu.Lock()
	for i, e := range p.recent {
		if e.n == n && e.cfg == cfg && slices.Equal(e.edges, edges) {
			copy(p.recent[1:i+1], p.recent[:i])
			p.recent[0] = e
			p.reused++
			p.mu.Unlock()
			return e.pos
		}
	}
	p.computed++
	p.mu.Unlock()

	placed := layout.ForceLayout(make([]layout.ForceNode, n), edges, cfg)
	e := &placement{n: n, edges: edges, cfg: cfg, pos: make([]layout.Point, n)}
	for i := range placed {
		e.pos[i] = placed[i].Pos
	}

	p.mu.Lock()
	if len(p.recent) < placementBound {
		p.recent = append(p.recent, nil)
	}
	copy(p.recent[1:], p.recent)
	p.recent[0] = e
	p.mu.Unlock()
	return e.pos
}

// PlacementStats reports how many graph-view renders took their node
// positions from the memo and how many ran the force simulation.
func PlacementStats() (reused, computed uint64) {
	placements.mu.Lock()
	defer placements.mu.Unlock()
	return placements.reused, placements.computed
}
