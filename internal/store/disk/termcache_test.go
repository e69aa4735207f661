package disk

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestTermCacheIsBounded: the table holds at most one entry per slot
// however many distinct IDs pass through it, two stores never read each
// other's entries, and an ID evicted by a collision misses rather than
// answering with the wrong term.
func TestTermCacheIsBounded(t *testing.T) {
	c := new(termCache)
	term := func(owner uint32, id store.ID) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://example.org/%d/%d", owner, id))
	}
	const ids = 10 * termCacheSlots
	for id := store.ID(1); id <= ids; id++ {
		c.put(1, id, term(1, id))
		if id%3 == 0 {
			c.put(2, id, term(2, id))
		}
	}
	live := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			live++
		}
	}
	if live != termCacheSlots {
		t.Fatalf("%d live entries after %d distinct IDs, want every one of the %d slots and no more", live, ids, termCacheSlots)
	}
	hits := 0
	for id := store.ID(1); id <= ids; id++ {
		for owner := uint32(1); owner <= 2; owner++ {
			got, ok := c.get(owner, id)
			if !ok {
				continue
			}
			hits++
			if got != term(owner, id) {
				t.Fatalf("get(%d, %d) = %v", owner, id, got)
			}
		}
	}
	if hits == 0 || hits > termCacheSlots {
		t.Fatalf("%d hits from a table of %d slots", hits, termCacheSlots)
	}
}

// TestLongTermsAreNotCached: a term whose encoding exceeds
// termCacheMaxEncoded is served correctly, every time, from the store.
func TestLongTermsAreNotCached(t *testing.T) {
	ds, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	long := rdf.NewLiteral(fmt.Sprintf("%0*d", 2*termCacheMaxEncoded, 7))
	short := rdf.NewLiteral("short")
	s, p := rdf.NewIRI("http://example.org/s"), rdf.NewIRI("http://example.org/p")
	for _, o := range []rdf.Term{long, short} {
		if _, err := ds.Insert(rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := ds.Snapshot()
	defer rd.(*Reader).Release()
	for _, tc := range []struct {
		term       rdf.Term
		wantMisses uint64
	}{{short, 1}, {long, 3}} {
		id := rd.Lookup(tc.term)
		_, before := ds.CacheStats()
		for i := 0; i < 3; i++ {
			if got := rd.Term(id); got != tc.term {
				t.Fatalf("Term(%d) = %v, want %v", id, got, tc.term)
			}
		}
		if _, after := ds.CacheStats(); after-before != tc.wantMisses {
			t.Errorf("three reads of a %d-byte literal missed %d times, want %d", len(tc.term.Value), after-before, tc.wantMisses)
		}
	}
}
