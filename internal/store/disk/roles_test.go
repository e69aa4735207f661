package disk

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestRoleClearsWithTheLastTriple: the flush-time recount walks only as
// far as the batch's deletes could cancel, so it has to come out the same
// as a full count: a term with more committed triples than a batch
// removes keeps its role bit and its place in DistinctS / DistinctO, down
// to one remaining triple, and loses them with that one — not a delete
// earlier, and not when the same batch puts a triple back.
func TestRoleClearsWithTheLastTriple(t *testing.T) {
	ds, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	hub := rdf.NewIRI("http://example.org/hub")
	p := rdf.NewIRI("http://example.org/p")
	leaf := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://example.org/%s%d", kind, i)) }
	out := func(i int) rdf.Triple { return rdf.Triple{S: hub, P: p, O: leaf("o", i)} }
	in := func(i int) rdf.Triple { return rdf.Triple{S: leaf("s", i), P: p, O: hub} }

	live := map[rdf.Triple]bool{}
	insert := func(tr rdf.Triple) {
		t.Helper()
		if _, err := ds.Insert(tr); err != nil {
			t.Fatal(err)
		}
		live[tr] = true
	}
	remove := func(tr rdf.Triple) {
		t.Helper()
		if ok, err := ds.Delete(tr); err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", tr, ok, err)
		}
		delete(live, tr)
	}
	// commit flushes the batch and checks the counters against the live
	// set and the hub's role bits against want.
	commit := func(stage string, want byte) {
		t.Helper()
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
		subjects, objects := map[rdf.Term]bool{}, map[rdf.Term]bool{}
		for tr := range live {
			subjects[tr.S], objects[tr.O] = true, true
		}
		r := ds.Snapshot()
		defer r.(*Reader).Release()
		if r.Len() != len(live) || r.DistinctSubjects() != len(subjects) || r.DistinctObjects() != len(objects) {
			t.Fatalf("%s: len %d, distinct S %d O %d; want %d, %d, %d", stage,
				r.Len(), r.DistinctSubjects(), r.DistinctObjects(), len(live), len(subjects), len(objects))
		}
		id := r.Lookup(hub)
		if id == store.NoID {
			t.Fatalf("%s: the hub left the dictionary", stage)
		}
		var got byte
		if raw, ok := ds.db.Get(roleKey(id)); ok {
			got = raw[0]
		}
		if got != want {
			t.Fatalf("%s: hub role bits %03b, want %03b", stage, got, want)
		}
	}

	for i := 0; i < 12; i++ {
		insert(out(i))
		insert(in(i))
	}
	commit("loaded", roleSubject|roleObject)
	for i := 0; i < 5; i++ {
		remove(out(i))
		remove(in(i))
	}
	commit("five of twelve gone each way", roleSubject|roleObject)
	for i := 5; i < 11; i++ {
		remove(out(i))
		remove(in(i))
	}
	commit("one left each way", roleSubject|roleObject)
	remove(out(11))
	insert(out(12))
	commit("the last subject triple replaced in one batch", roleSubject|roleObject)
	remove(out(12))
	commit("the last subject triple gone", roleObject)
	remove(in(11))
	commit("the last object triple gone", 0)
}
