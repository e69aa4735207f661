package viz

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/endpoint"
	"repro/internal/layout"
	"repro/internal/registry"
	"repro/internal/synth"
)

// resetPlacements empties the memo and its counters, so a test can
// compare a memoized render against one placed from scratch.
func resetPlacements() {
	placements.mu.Lock()
	defer placements.mu.Unlock()
	placements.recent, placements.reused, placements.computed = nil, 0, 0
}

// graphViews renders the two memo-backed views of a dataset's current
// state.
func graphViews(t *testing.T, st *core.State) (clusterGraph, summaryGraph []byte) {
	t.Helper()
	sum, cs, err := st.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	return ClusterGraphView(cs, 900), SummaryGraphView(sum, nil, 900)
}

// TestPlacementReuseAcrossUpdates walks one dataset through updates and
// holds every graph view rendered with the memo warm to the bytes of a
// render made after emptying it. The counters tell which updates kept
// the topology (instances of existing classes: a reuse) and which did
// not (a first edge between two classes: a recompute).
func TestPlacementReuseAcrossUpdates(t *testing.T) {
	h := core.New(nil, nil)
	t.Cleanup(h.Close)
	const url = "http://scholarly.example.org/sparql"
	h.Registry.Add(registry.Entry{URL: url})
	h.Connect(url, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	ns := synth.ScholarlyNS
	steps := []struct {
		name, update string
		recompute    bool
	}{
		{"more instances of an existing class", fmt.Sprintf(
			`INSERT DATA { <%[1]sx/p1> a <%[1]sPerson> . <%[1]sx/p2> a <%[1]sPerson> . <%[1]sx/p3> a <%[1]sPerson> }`, ns), false},
		{"instances removed again", fmt.Sprintf(
			`DELETE DATA { <%[1]sx/p2> a <%[1]sPerson> }`, ns), false},
		{"a property between two classes no edge joined", "", true},
		{"instance counts only, after the new edge", fmt.Sprintf(
			`INSERT DATA { <%[1]sx/p4> a <%[1]sPerson> }`, ns), false},
	}
	// the recompute step needs a class pair without an edge in either
	// direction; pick it from the published summary
	sum, _, err := h.State(url).Schemas()
	if err != nil {
		t.Fatal(err)
	}
	joined := map[[2]string]bool{}
	for _, e := range sum.Edges {
		joined[[2]string{e.From, e.To}] = true
	}
	var from, to string
pick:
	for _, a := range sum.Nodes {
		for _, b := range sum.Nodes {
			if a.IRI != b.IRI && !joined[[2]string{a.IRI, b.IRI}] {
				from, to = a.IRI, b.IRI
				break pick
			}
		}
	}
	if from == "" {
		t.Fatal("every class pair of the scholarly summary is already joined")
	}
	steps[2].update = fmt.Sprintf(`INSERT DATA { <%[1]sx/a> a <%[2]s> . <%[1]sx/b> a <%[3]s> . <%[1]sx/a> <%[1]sx/newLink> <%[1]sx/b> }`, ns, from, to)

	resetPlacements()
	graphViews(t, h.State(url)) // warm: both placements computed once
	for _, step := range steps {
		if _, err := h.ApplyUpdate(context.Background(), url, step.update); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		st := h.State(url)
		_, before := PlacementStats()
		warmCluster, warmSummary := graphViews(t, st)
		_, after := PlacementStats()
		if recomputed := after > before; recomputed != step.recompute {
			t.Errorf("%s: force layouts run = %d, want a recompute: %v", step.name, after-before, step.recompute)
		}

		kept := placements.recent
		resetPlacements()
		coldCluster, coldSummary := graphViews(t, st)
		if !bytes.Equal(warmCluster, coldCluster) {
			t.Errorf("%s: cluster graph differs between a memoized and a fresh placement", step.name)
		}
		if !bytes.Equal(warmSummary, coldSummary) {
			t.Errorf("%s: summary graph differs between a memoized and a fresh placement", step.name)
		}
		placements.recent = kept
	}
}

// TestPlacementMemoBounded: visible= is request input, so distinct
// topologies are unbounded; the memo is not.
func TestPlacementMemoBounded(t *testing.T) {
	resetPlacements()
	cfg := layout.ForceConfig{Width: 100, Height: 100, Iterations: 1, Seed: 1}
	for n := 1; n <= 3*placementBound; n++ {
		place(n, nil, cfg)
	}
	if got := len(placements.recent); got != placementBound {
		t.Fatalf("memo holds %d placements after %d distinct topologies, bound %d", got, 3*placementBound, placementBound)
	}
	// the most recent survive, the oldest are gone
	_, before := PlacementStats()
	place(3*placementBound, nil, cfg)
	place(1, nil, cfg)
	if _, after := PlacementStats(); after != before+1 {
		t.Fatalf("force layouts run = %d, want 1 (the evicted topology only)", after-before)
	}
}

// TestPlacementKeyIsExact: anything ForceLayout reads is part of the
// key, so a different weight, endpoint, seed or size is never a reuse.
func TestPlacementKeyIsExact(t *testing.T) {
	resetPlacements()
	cfg := layout.ForceConfig{Width: 300, Height: 300, Iterations: 5, Seed: 1}
	edges := []layout.ForceEdge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 2, Weight: 1}}
	variants := []struct {
		n     int
		edges []layout.ForceEdge
		cfg   layout.ForceConfig
	}{
		{3, edges, cfg},
		{4, edges, cfg},
		{3, edges[:1], cfg},
		{3, []layout.ForceEdge{{From: 0, To: 1, Weight: 3}, {From: 1, To: 2, Weight: 1}}, cfg},
		{3, []layout.ForceEdge{{From: 0, To: 2, Weight: 2}, {From: 1, To: 2, Weight: 1}}, cfg},
		{3, edges, layout.ForceConfig{Width: 300, Height: 300, Iterations: 5, Seed: 2}},
		{3, edges, layout.ForceConfig{Width: 300, Height: 301, Iterations: 5, Seed: 1}},
		{3, edges, layout.ForceConfig{Width: 300, Height: 300, Iterations: 6, Seed: 1}},
	}
	for i, v := range variants {
		got := place(v.n, v.edges, v.cfg)
		fresh := layout.ForceLayout(make([]layout.ForceNode, v.n), v.edges, v.cfg)
		for j := range fresh {
			if got[j] != fresh[j].Pos {
				t.Fatalf("variant %d node %d: placed %v, ForceLayout gives %v", i, j, got[j], fresh[j].Pos)
			}
		}
	}
	if reused, computed := PlacementStats(); reused != 0 || computed != uint64(len(variants)) {
		t.Fatalf("reused %d, computed %d; want 0 and %d", reused, computed, len(variants))
	}
	// and the same inputs again, in a fresh slice, are
	place(3, append([]layout.ForceEdge(nil), edges...), cfg)
	if reused, _ := PlacementStats(); reused != 1 {
		t.Fatalf("identical inputs reused %d times, want 1", reused)
	}
}

// TestPlacementConcurrentMisses runs misses of one topology and of
// different ones at once (meaningful under -race): every caller gets the
// positions a fresh ForceLayout gives.
func TestPlacementConcurrentMisses(t *testing.T) {
	resetPlacements()
	cfg := layout.ForceConfig{Width: 400, Height: 400, Iterations: 20, Seed: 3}
	ring := func(n int) []layout.ForceEdge {
		edges := make([]layout.ForceEdge, n)
		for i := range edges {
			edges[i] = layout.ForceEdge{From: i, To: (i + 1) % n, Weight: 1}
		}
		return edges
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 5 + g%4 // four topologies, four goroutines each
			for round := 0; round < 3; round++ {
				got := place(n, ring(n), cfg)
				fresh := layout.ForceLayout(make([]layout.ForceNode, n), ring(n), cfg)
				for j := range fresh {
					if got[j] != fresh[j].Pos {
						t.Errorf("n=%d node %d: placed %v, ForceLayout gives %v", n, j, got[j], fresh[j].Pos)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(placements.recent); got > placementBound {
		t.Fatalf("memo holds %d placements, bound %d", got, placementBound)
	}
}
