package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/community"
	"repro/internal/schema"
)

// resetPartitions empties the memo and its counters.
func resetPartitions() {
	partitions.mu.Lock()
	defer partitions.mu.Unlock()
	partitions.recent, partitions.reused, partitions.computed = nil, 0, 0
}

// buildReference is Build as it was before the memo: a graph and a
// community detection per call, Summary.Degree per member, members sorted
// through NodeByIRI. It is the oracle the memoized Build must equal.
func buildReference(s *schema.Summary, opts Options) *Schema {
	if opts.Algorithm == "" {
		opts.Algorithm = Louvain
	}
	idx := map[string]int{}
	for i, node := range s.Nodes {
		idx[node.IRI] = i
	}
	g := community.NewGraph(s.NumClasses())
	for _, e := range s.Edges {
		w := float64(e.Count)
		if w <= 0 {
			w = 1
		}
		g.AddEdge(idx[e.From], idx[e.To], w)
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
	cs := &Schema{Dataset: s.Dataset, Algorithm: opts.Algorithm,
		Modularity: community.Modularity(g, part), TotalInstances: s.TotalInstances}
	type accum struct {
		classes   []string
		instances int
		label     string
	}
	var acc []accum
	for _, m := range part.Members() {
		if len(m) == 0 {
			continue
		}
		a, best := accum{}, -1
		for _, i := range m {
			node := s.Nodes[i]
			a.classes = append(a.classes, node.IRI)
			a.instances += node.Instances
			if d := s.Degree(node.IRI); d > best {
				best, a.label = d, node.Label
			}
		}
		sort.Slice(a.classes, func(i, j int) bool {
			x, _ := s.NodeByIRI(a.classes[i])
			y, _ := s.NodeByIRI(a.classes[j])
			if x.Instances != y.Instances {
				return x.Instances > y.Instances
			}
			return x.IRI < y.IRI
		})
		acc = append(acc, a)
	}
	sort.Slice(acc, func(i, j int) bool {
		if acc[i].instances != acc[j].instances {
			return acc[i].instances > acc[j].instances
		}
		return acc[i].label < acc[j].label
	})
	of := map[string]int{}
	for ci, a := range acc {
		cs.Clusters = append(cs.Clusters, Cluster{Label: a.label, Classes: a.classes, Instances: a.instances})
		for _, c := range a.classes {
			of[c] = ci
		}
	}
	agg := map[[2]int]*Edge{}
	for _, e := range s.Edges {
		key := [2]int{of[e.From], of[e.To]}
		if key[0] == key[1] {
			continue
		}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if agg[key] == nil {
			agg[key] = &Edge{From: key[0], To: key[1]}
		}
		agg[key].Links++
		agg[key].Count += e.Count
	}
	keys := make([][2]int, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		cs.Edges = append(cs.Edges, *agg[k])
	}
	return cs
}

// perturbed returns a copy of s changed by kind: "counts" redraws instance
// counts (the clustering graph stands), "reorder" shuffles the classes
// (the graph is the same up to node numbering), "weight" changes one arc's
// link count (the graph changes).
func perturbed(s *schema.Summary, kind string, rng *rand.Rand) *schema.Summary {
	out := &schema.Summary{Dataset: s.Dataset, Nodes: slices.Clone(s.Nodes), Edges: slices.Clone(s.Edges), Triples: s.Triples}
	switch kind {
	case "counts":
		for i := range out.Nodes {
			if rng.Intn(2) == 0 {
				out.Nodes[i].Instances = 1 + rng.Intn(2000)
			}
		}
	case "reorder":
		rng.Shuffle(len(out.Nodes), func(i, j int) { out.Nodes[i], out.Nodes[j] = out.Nodes[j], out.Nodes[i] })
	case "weight":
		out.Edges[rng.Intn(len(out.Edges))].Count += 5 + rng.Intn(50)
	}
	for _, n := range out.Nodes {
		out.TotalInstances += n.Instances
	}
	out.Reindex()
	return out
}

// TestMemoizedBuildEqualsFresh: over count-only perturbations, class
// reorders and link-count changes of two summaries, every Build deep-equals
// a computation from scratch (the pre-memo algorithm, or Build on an empty
// memo); a count-only change reuses the partition and a weight change
// computes a new one.
func TestMemoizedBuildEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, base := range []*schema.Summary{scholarlySummary(t), modularSummary(t, 5)} {
		for _, opts := range []Options{{Seed: 1}, {Algorithm: LabelPropagation, Seed: 3}} {
			resetPartitions()
			if _, err := Build(base, opts); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 30; round++ {
				kind := []string{"counts", "reorder", "weight"}[round%3]
				s := perturbed(base, kind, rng)
				reused0, computed0 := PartitionStats()
				memo, err := Build(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				reused, computed := PartitionStats()
				switch {
				case kind == "counts" && reused != reused0+1:
					t.Fatalf("%s round %d: a count-only change did not reuse the partition", opts.Algorithm, round)
				case kind == "weight" && computed != computed0+1:
					t.Fatalf("%s round %d: a link-count change reused a partition", opts.Algorithm, round)
				}
				if want := buildReference(s, opts); !reflect.DeepEqual(memo, want) {
					t.Fatalf("%s round %d (%s): memoized Build differs from the reference\ngot  %+v\nwant %+v", opts.Algorithm, round, kind, memo, want)
				}
				resetPartitions()
				fresh, _ := Build(s, opts)
				if !reflect.DeepEqual(memo, fresh) {
					t.Fatalf("%s round %d (%s): memoized Build differs from Build on an empty memo", opts.Algorithm, round, kind)
				}
				Build(base, opts) // the next round perturbs the base again
			}
		}
	}
}

// TestPartitionMemoBounded: distinct graphs beyond the bound evict the
// least recently used; the memo never grows past partitionBound.
func TestPartitionMemoBounded(t *testing.T) {
	resetPartitions()
	t.Cleanup(resetPartitions)
	for i := 0; i < partitionBound+10; i++ {
		s := &schema.Summary{Dataset: "x", Nodes: []schema.Node{
			{IRI: "http://a", Label: "a", Instances: 1}, {IRI: "http://b", Label: "b", Instances: 1},
		}, Edges: []schema.Edge{{From: "http://a", To: "http://b", Count: i + 1}}}
		if _, err := Build(s, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	partitions.mu.Lock()
	n := len(partitions.recent)
	partitions.mu.Unlock()
	if n != partitionBound {
		t.Fatalf("memo holds %d partitions, bound %d", n, partitionBound)
	}
	if _, computed := PartitionStats(); computed != partitionBound+10 {
		t.Fatalf("computed = %d, want %d", computed, partitionBound+10)
	}
}

// TestConcurrentBuilds (run under -race): Builds of a few summaries from
// many goroutines agree with the reference.
func TestConcurrentBuilds(t *testing.T) {
	resetPartitions()
	bases := []*schema.Summary{scholarlySummary(t), modularSummary(t, 5)}
	want := make([]*Schema, len(bases))
	for i, s := range bases {
		want[i] = buildReference(s, Options{Seed: 1})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				i := (g + k) % len(bases)
				cs, err := Build(bases[i], Options{Seed: 1})
				if err == nil && !reflect.DeepEqual(cs, want[i]) {
					err = fmt.Errorf("goroutine %d: summary %d differs from the reference", g, i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	s := scholarlySummary(b)
	b.Run("memo", func(b *testing.B) {
		for b.Loop() {
			Build(s, Options{Seed: 1})
		}
	})
	b.Run("reference", func(b *testing.B) {
		for b.Loop() {
			buildReference(s, Options{Seed: 1})
		}
	})
}
