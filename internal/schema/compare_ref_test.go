package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// compareMaps is Compare as it was before the ordered walk: one map per
// side for classes and for spelled-out arcs. It is the oracle of
// TestCompareMatchesMapVersion.
func compareMaps(old, new *Summary) *Diff {
	d := &Diff{
		InstanceDelta: map[string]int{},
		TriplesDelta:  new.Triples - old.Triples,
	}
	oldNodes := map[string]Node{}
	for _, n := range old.Nodes {
		oldNodes[n.IRI] = n
	}
	newNodes := map[string]Node{}
	for _, n := range new.Nodes {
		newNodes[n.IRI] = n
	}
	for iri, n := range newNodes {
		if o, ok := oldNodes[iri]; !ok {
			d.AddedClasses = append(d.AddedClasses, iri)
		} else if delta := n.Instances - o.Instances; delta != 0 {
			d.InstanceDelta[iri] = delta
		}
	}
	for iri := range oldNodes {
		if _, ok := newNodes[iri]; !ok {
			d.RemovedClasses = append(d.RemovedClasses, iri)
		}
	}
	sort.Strings(d.AddedClasses)
	sort.Strings(d.RemovedClasses)

	edgeKey := func(e Edge) string {
		return fmt.Sprintf("%s --%s--> %s", e.From, e.Property, e.To)
	}
	oldEdges := map[string]bool{}
	for _, e := range old.Edges {
		oldEdges[edgeKey(e)] = true
	}
	newEdges := map[string]bool{}
	for _, e := range new.Edges {
		newEdges[edgeKey(e)] = true
	}
	for k := range newEdges {
		if !oldEdges[k] {
			d.AddedEdges = append(d.AddedEdges, k)
		}
	}
	for k := range oldEdges {
		if !newEdges[k] {
			d.RemovedEdges = append(d.RemovedEdges, k)
		}
	}
	sort.Strings(d.AddedEdges)
	sort.Strings(d.RemovedEdges)
	if len(d.InstanceDelta) == 0 {
		d.InstanceDelta = nil
	}
	return d
}

// randomSummaryPair draws an old summary and a perturbation of it. IRIs
// come from small pools, so parallel arcs (one pair, several properties)
// and repeated arcs are common; a few IRIs hold the separators a Diff
// spells arcs with, so two different arcs can share a spelling; a class is
// now and then listed twice; and the arcs are left unsorted half the time.
func randomSummaryPair(rng *rand.Rand) (*Summary, *Summary) {
	// ("a --p", q, b) and (a, "p --q", b) spell alike, as do
	// (a, "p--> b", c) and (a, p, "b--> c")
	classes := []string{"a", "b", "c", "d", "a --p", "b--> c", "x -- y"}
	props := []string{"p", "q", "p --q", "p--> b", "r"}
	pick := func(pool []string) string {
		if rng.Intn(8) == 0 {
			return pool[len(pool)-1-rng.Intn(3)] // the separator-holding tail
		}
		return pool[rng.Intn(len(pool)-3)]
	}
	nodes := func() []Node {
		var ns []Node
		for _, c := range rng.Perm(len(classes))[:rng.Intn(len(classes)+1)] {
			ns = append(ns, Node{IRI: classes[c], Instances: rng.Intn(4)})
		}
		if len(ns) > 0 && rng.Intn(6) == 0 {
			dup := ns[rng.Intn(len(ns))]
			dup.Instances = rng.Intn(4)
			ns = append(ns, dup)
		}
		return ns
	}
	arc := func() Edge {
		return Edge{From: pick(classes), To: pick(classes), Property: pick(props), Count: rng.Intn(3)}
	}
	summary := func(ns []Node, es []Edge) *Summary {
		if rng.Intn(2) == 0 {
			slices.SortFunc(es, compareArcs)
		} else {
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		return &Summary{Dataset: "x", Nodes: ns, Edges: es, Triples: rng.Intn(50)}
	}
	var oldArcs []Edge
	for range rng.Intn(12) {
		oldArcs = append(oldArcs, arc())
		if rng.Intn(4) == 0 {
			oldArcs = append(oldArcs, oldArcs[len(oldArcs)-1]) // a repeated arc
		}
	}
	var newArcs []Edge
	for _, e := range oldArcs {
		if rng.Intn(5) != 0 {
			e.Count = rng.Intn(3)
			newArcs = append(newArcs, e)
		}
	}
	for range rng.Intn(5) {
		newArcs = append(newArcs, arc())
	}
	oldNodes := nodes()
	newNodes := slices.Clone(oldNodes)
	if rng.Intn(3) == 0 {
		newNodes = nodes()
	}
	for i := range newNodes {
		if rng.Intn(3) == 0 {
			newNodes[i].Instances = rng.Intn(4)
		}
	}
	return summary(oldNodes, oldArcs), summary(newNodes, newArcs)
}

// TestCompareMatchesMapVersion: the ordered walk reports exactly what the
// map-based Compare reported, over random pairs with parallel, repeated
// and alike-spelled arcs, repeated classes and unsorted literals — and
// leaves both summaries as it found them.
func TestCompareMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	spelledAlike := 0
	for i := 0; i < 20000; i++ {
		old, new := randomSummaryPair(rng)
		oldArcs, newArcs := slices.Clone(old.Edges), slices.Clone(new.Edges)
		want := compareMaps(old, new)
		got := Compare(old, new)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d:\nold %+v\nnew %+v\ngot  %#v\nwant %#v", i, old, new, got, want)
		}
		if !slices.Equal(old.Edges, oldArcs) || !slices.Equal(new.Edges, newArcs) {
			t.Fatalf("pair %d: Compare reordered a summary's arcs", i)
		}
		arcs, keys := map[[3]string]bool{}, map[string]bool{}
		for _, e := range append(oldArcs, newArcs...) {
			arcs[[3]string{e.From, e.Property, e.To}] = true
			keys[arcKey(e)] = true
		}
		if len(keys) < len(arcs) {
			spelledAlike++
		}
	}
	if spelledAlike == 0 {
		t.Fatal("no pair had two arcs spelled alike: the generator lost its separator IRIs")
	}
	t.Logf("%d pairs had two different arcs spelled alike", spelledAlike)
}

func BenchmarkCompare(b *testing.B) {
	const classes = 60
	build := func(bump int) *Summary {
		s := &Summary{Dataset: "x"}
		for c := 0; c < classes; c++ {
			s.Nodes = append(s.Nodes, Node{IRI: fmt.Sprintf("http://x/C%d", c), Instances: 100 + c + bump})
		}
		for c := 0; c < classes; c++ {
			for k := 1; k <= 3; k++ {
				s.Edges = append(s.Edges, Edge{
					From: s.Nodes[c].IRI, To: s.Nodes[(c*7+k)%classes].IRI,
					Property: fmt.Sprintf("http://x/p%d", k), Count: 10 + bump,
				})
			}
		}
		slices.SortFunc(s.Edges, compareArcs)
		s.reindex()
		return s
	}
	old, new := build(0), build(1)
	for _, bc := range []struct {
		name string
		fn   func(old, new *Summary) *Diff
	}{{"walk", Compare}, {"maps", compareMaps}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.fn(old, new)
			}
		})
	}
}
