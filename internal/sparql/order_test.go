package sparql_test

import (
	"slices"
	"testing"

	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// TestJoinOrderIsPinned: bgpOrder reads each pattern's cardinality once
// and re-runs only the arithmetic, so it must still choose what the
// greedy loop that asked the store every round chose — bare-LIMIT
// answers depend on the order — and must ask exactly once per pattern
// (not at all for one whose constant the store has never seen), and
// nothing of a one-pattern BGP. Over synth.QueryGen's queries,
// on both tiers.
func TestJoinOrderIsPinned(t *testing.T) {
	mem := synth.Generate(synth.Spec{
		Name: "order", Classes: 6, Instances: 300, ObjectProps: 8,
		DataProps: 5, LinkFactor: 2, CommunitySeeds: 2, Seed: 5,
	})
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
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
