package sparql_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// TestJoinOrderIsPinned: bgpOrder reads each pattern's cardinality once
// and its rounds only compare, so it must still choose what the
// greedy loop that asked the store every round chose — bare-LIMIT
// answers depend on the order — and must ask exactly once per pattern
// (not at all for one whose constant the store has never seen), and
// nothing of a one-pattern BGP. Over synth.QueryGen's queries,
// on both tiers.
func TestJoinOrderIsPinned(t *testing.T) {
	mem, tiers := orderTiers(t)
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			gen := synth.NewQueryGen(mem, 77)
			bgps, single, multi := 0, 0, 0
			for i := 0; i < 300; i++ {
				text := gen.Query()
				q, err := sparql.Parse(text)
				if err != nil {
					t.Fatalf("query %d: %v\n%s", i, err, text)
				}
				orders, err := sparql.BGPOrders(q, tier.st)
				if err != nil {
					continue // a shape the compiler declines; nothing is ordered
				}
				for _, o := range orders {
					bgps++
					if !slices.Equal(o.Order, o.Greedy) {
						t.Fatalf("query %d: order %v, the greedy loop chose %v\n%s", i, o.Order, o.Greedy, text)
					}
					want := o.Patterns - o.Unseen
					if o.Patterns == 1 {
						want = 0
						single++
					} else {
						multi++
					}
					if o.Calls != want {
						t.Fatalf("query %d: %d CardinalityIDs calls for a BGP of %d patterns, want %d\n%s", i, o.Calls, o.Patterns, want, text)
					}
				}
			}
			if single < 20 || multi < 100 {
				t.Fatalf("%d BGPs seen, %d of one pattern and %d of several; the test no longer checks anything", bgps, single, multi)
			}
		})
	}
}

type orderTier struct {
	name string
	st   store.Queryable
}

// orderTiers is the join-order corpus on both tiers, the disk one a
// CopyFrom of the memory one, so IDs and cardinalities agree. Its
// classes hold (rdf:type triples) Class0 18, Class1 28, Class2 61,
// Class3 132, Class4 39 and Class5 22 instances; attrN is a literal on
// every instance of ClassN; relN links a domain to a range class, two
// links per domain instance less duplicates: rel0 Class3→Class5 257,
// rel1 Class1→Class5 55, rel3 Class4→Class2 78, rel4 Class2→Class4 120.
func orderTiers(t *testing.T) (*store.Store, []orderTier) {
	mem := synth.Generate(synth.Spec{
		Name: "order", Classes: 6, Instances: 300, ObjectProps: 8,
		DataProps: 5, LinkFactor: 2, CommunitySeeds: 2, Seed: 5,
	})
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	return mem, []orderTier{{"memory", mem}, {"disk", ds}}
}

// TestProductJoinOrders pins, as literal values, the join order of every
// multi-pattern shape the product runs: the index extraction's
// per-class queries (extraction/index.go) and the bench's typed, join
// and chain reads, over the orderTiers corpus, on both tiers, from the
// empty seed row a top-level BGP starts from. The order is the
// patterns' written positions. A cost-model change that moves one shows
// up here as a diff.
func TestProductJoinOrders(t *testing.T) {
	_, tiers := orderTiers(t)
	cases := []struct {
		name, where string
		want        []int
	}{
		// The extraction, per class: properties, their literal counts,
		// and the linked-class pairs with their counts.
		{"extraction properties", "?s a o:Class3 . ?s ?p ?o FILTER isLiteral(?o)", []int{0, 1}},
		{"extraction literal count, a tie", "?s a o:Class3 . ?s o:attr3 ?o FILTER isLiteral(?o)", []int{0, 1}},
		{"extraction link pairs", "?s a o:Class2 . ?s ?p ?o . ?o a ?d", []int{0, 1, 2}},
		{"extraction link count", "?s a o:Class4 . ?s o:rel3 ?o . ?o a o:Class2", []int{0, 1, 2}},
		{"extraction link count, small range", "?s a o:Class3 . ?s o:rel0 ?o . ?o a o:Class5", []int{2, 1, 0}},
		// The bench's reads.
		{"typed", "?s a o:Class3", []int{0}},
		{"join", "?s a o:Class1 . ?s o:rel1 ?o", []int{0, 1}},
		{"chain", "?s a o:Class4 . ?s o:rel3 ?o . ?o o:attr2 ?v", []int{0, 1, 2}},
		{"chain, small tail", "?s a o:Class2 . ?s o:rel4 ?o . ?o o:attr4 ?v", []int{2, 1, 0}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			for _, c := range cases {
				text := fmt.Sprintf("PREFIX o: <http://order.example.org/onto#> SELECT * WHERE { %s }", c.where)
				q, err := sparql.Parse(text)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				orders, err := sparql.BGPOrders(q, tier.st)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if len(orders) != 2 { // one BGP, ordered from two seed rows
					t.Fatalf("%s: %d orders, want one BGP's two", c.name, len(orders))
				}
				if got := orders[0].Order; !slices.Equal(got, c.want) {
					t.Errorf("%s: join order %v, pinned %v", c.name, got, c.want)
				}
			}
		})
	}
}
