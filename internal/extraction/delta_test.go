package extraction_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/update"
)

// The incremental-maintenance contract: after any update, ApplyDelta
// must leave the stored Index exactly where a full re-extraction of the
// updated corpus would. The update stream below exercises every path the
// delta logic has — new classes, vanishing classes, data properties,
// object links whose classification changes because the *object's* type
// set changed (no triple of the linking subject touched), predicate
// renames through the pattern form, and label pick-up for classes that
// appear after their rdfs:label triple.

func deltaFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	a := rdf.NewIRI(rdf.RDFType)
	for _, tr := range []rdf.Triple{
		{S: iri("alice"), P: a, O: iri("Person")},
		{S: iri("bob"), P: a, O: iri("Person")},
		{S: iri("acme"), P: a, O: iri("Company")},
		{S: iri("alice"), P: iri("name"), O: rdf.NewLiteral("Alice")},
		{S: iri("bob"), P: iri("name"), O: rdf.NewLiteral("Bob")},
		{S: iri("alice"), P: iri("worksFor"), O: iri("acme")},
		{S: iri("alice"), P: iri("knows"), O: iri("bob")},
		// untyped subject: visible only in the full-corpus partitions
		{S: iri("ghost"), P: iri("seen"), O: rdf.NewLiteral("once")},
	} {
		st.Add(tr)
	}
	return st
}

var deltaUpdates = []string{
	// new class with an instance, a data property and a link to a typed object
	`PREFIX ex: <http://ex/>
	 INSERT DATA { ex:rex a ex:Dog . ex:rex ex:name "Rex" . ex:rex ex:owner ex:alice }`,
	// give an existing link target a second type: alice's worksFor link
	// to acme must now count toward both target classes, though no
	// triple of alice changed
	`PREFIX ex: <http://ex/>
	 INSERT DATA { ex:acme a ex:Employer }`,
	// predicate rename through the pattern form
	`PREFIX ex: <http://ex/>
	 DELETE { ?s ex:name ?n } INSERT { ?s ex:label ?n } WHERE { ?s ex:name ?n }`,
	// label pick-up: the rdfs:label lands before the class exists
	`PREFIX ex: <http://ex/>
	 INSERT DATA { ex:Robot <http://www.w3.org/2000/01/rdf-schema#label> "Automaton" } ;
	 INSERT DATA { ex:r2 a ex:Robot . ex:r2 ex:owner ex:rex }`,
	// drop a type: acme stops being an Employer, reclassifying the link again
	`PREFIX ex: <http://ex/>
	 DELETE DATA { ex:acme a ex:Employer }`,
	// remove a whole subject; the Dog class loses its only instance
	`PREFIX ex: <http://ex/>
	 DELETE WHERE { ex:rex ?p ?o }`,
	// delete+reinsert in one request nets out to nothing
	`PREFIX ex: <http://ex/>
	 DELETE DATA { ex:alice ex:knows ex:bob } ;
	 INSERT DATA { ex:alice ex:knows ex:bob }`,
}

func normalizeIndex(ix *extraction.Index) *extraction.Index {
	cp := *ix
	cp.ExtractedAt = time.Time{}
	cp.Strategy = ""
	return &cp
}

func TestApplyDeltaMatchesReextraction(t *testing.T) {
	ctx := context.Background()
	st := deltaFixture(t)
	ex := extraction.New()
	client := endpoint.LocalClient{Store: st}
	ix, err := ex.Extract(ctx, client, "mem://delta", time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range deltaUpdates {
		d, err := update.ApplyText(ctx, st, text)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		extraction.ApplyDelta(ix, st, d.Added, d.Removed, time.Unix(int64(i+1), 0))
		fresh, err := ex.Extract(ctx, client, "mem://delta", time.Unix(int64(i+1), 0))
		if err != nil {
			t.Fatalf("re-extract after update %d: %v", i, err)
		}
		if got, want := normalizeIndex(ix), normalizeIndex(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("after update %d incremental index diverged from re-extraction\n got: %+v\nwant: %+v", i, got, want)
		}
	}
}

// An empty delta must not touch the index at all (not even ExtractedAt).
func TestApplyDeltaEmpty(t *testing.T) {
	st := deltaFixture(t)
	ex := extraction.New()
	ix, err := ex.Extract(context.Background(), endpoint.LocalClient{Store: st}, "mem://delta", time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := *ix
	extraction.ApplyDelta(ix, st, nil, nil, time.Unix(99, 0))
	if !reflect.DeepEqual(before, *ix) {
		t.Fatalf("empty delta changed the index:\n before %+v\n after %+v", before, *ix)
	}
}

// TestIndexCloneSharesNothing: ApplyDelta edits in place, so the copy it
// is handed must share no backing array with an index readers still
// hold — every update of the battery runs on a clone while the original
// has to keep marshalling to the bytes it had.
func TestIndexCloneSharesNothing(t *testing.T) {
	ctx := context.Background()
	st := deltaFixture(t)
	ix, err := extraction.New().Extract(ctx, endpoint.LocalClient{Store: st}, "mem://delta", time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range deltaUpdates {
		before, err := json.Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		next := ix.Clone()
		if same, _ := json.Marshal(next); !bytes.Equal(same, before) {
			t.Fatalf("clone %d differs from its source:\n got %s\nwant %s", i, same, before)
		}
		if shared(next.Classes, ix.Classes) || shared(next.Predicates, ix.Predicates) {
			t.Fatalf("clone %d shares a top-level slice with its source", i)
		}
		for c := range next.Classes {
			if shared(next.Classes[c].DataProperties, ix.Classes[c].DataProperties) ||
				shared(next.Classes[c].ObjectProperties, ix.Classes[c].ObjectProperties) {
				t.Fatalf("clone %d shares class %s's property lists with its source", i, ix.Classes[c].IRI)
			}
		}
		d, err := update.ApplyText(ctx, st, text)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		extraction.ApplyDelta(next, st, d.Added, d.Removed, time.Unix(int64(i+1), 0))
		if after, _ := json.Marshal(ix); !bytes.Equal(after, before) {
			t.Fatalf("update %d on the clone changed the source:\n got %s\nwant %s", i, after, before)
		}
		ix = next
	}
}

// shared reports whether two non-empty slices start at the same element.
func shared[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
