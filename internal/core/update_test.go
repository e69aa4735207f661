package core

// Tests for the live mutation path: ApplyUpdate mutates the writable
// tier, repairs every derived artifact incrementally (the maintained
// index must equal a fresh extraction), bumps the generation so cached
// snapshots stop validating, records the schema diff, and publishes a
// change-feed event. Corpus mode writes through to the persistent
// replica.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/turtle"
)

func evolvingTool(t *testing.T) (*HBOLD, string, *store.Store) {
	t.Helper()
	ck := clock.NewSim(clock.Epoch)
	h := New(docstore.MustOpenMem(), ck)
	t.Cleanup(h.Close)
	url := "http://evolving.example.org/sparql"
	st := store.FromGraph(turtle.MustParse(`
@prefix ex: <http://ex/> .
ex:a1 a ex:Author ; ex:name "A1" .
ex:b1 a ex:Book ; ex:title "B1" ; ex:by ex:a1 .
`))
	h.Registry.Add(registry.Entry{URL: url, AddedAt: ck.Now()})
	h.Connect(url, endpoint.LocalClient{Store: st})
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	return h, url, st
}

func TestApplyUpdateLiveMaintenance(t *testing.T) {
	h, url, st := evolvingTool(t)
	ctx := context.Background()
	gen0 := h.Generation(url)

	// warm the snapshot cache so invalidation is observable
	if _, err := h.Summary(url); err != nil {
		t.Fatal(err)
	}

	res, err := h.ApplyUpdate(ctx, url, `
PREFIX ex: <http://ex/>
INSERT DATA {
  ex:p1 a ex:Publisher ; ex:name "P1" .
  ex:b1 ex:publishedBy ex:p1 .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 3 || res.Removed != 0 {
		t.Fatalf("delta = +%d/-%d, want +3/-0", res.Added, res.Removed)
	}
	if res.Generation != gen0+1 || h.Generation(url) != gen0+1 {
		t.Fatalf("generation = %d, want %d", res.Generation, gen0+1)
	}
	if res.Seq != 1 {
		t.Fatalf("feed seq = %d, want 1", res.Seq)
	}
	if res.Diff == nil || len(res.Diff.AddedClasses) != 1 || res.Diff.AddedClasses[0] != "http://ex/Publisher" {
		t.Fatalf("diff = %+v, want AddedClasses [http://ex/Publisher]", res.Diff)
	}
	// the diff is also recorded in the document store
	if d, ok := h.LastDiff(url); !ok || len(d.AddedClasses) != 1 {
		t.Fatalf("recorded diff = %+v, %v", d, ok)
	}

	// the incrementally maintained index must equal a fresh extraction
	// over the mutated store
	published, err := h.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	ix := published.Clone() // the published index is shared and immutable
	fresh, err := extraction.New().Extract(context.Background(), endpoint.LocalClient{Store: st}, url, h.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	ix.ExtractedAt = fresh.ExtractedAt
	ix.Strategy, fresh.Strategy = "", ""
	if !reflect.DeepEqual(ix, fresh) {
		t.Fatalf("maintained index diverges from re-extraction:\n got %+v\nwant %+v", ix, fresh)
	}

	// the rebuilt summary is served at the new generation and includes
	// the new class
	s, err := h.Summary(url)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range s.Nodes {
		if n.IRI == "http://ex/Publisher" {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary after update misses the new class: %+v", s.Nodes)
	}

	// the change feed replays the event
	backlog, _, cancel := h.Changes().Subscribe(0)
	defer cancel()
	if len(backlog) != 1 || backlog[0].Seq != 1 || backlog[0].Added != 3 || backlog[0].Dataset != url {
		t.Fatalf("feed backlog = %+v", backlog)
	}
	if backlog[0].Generation != gen0+1 {
		t.Fatalf("event generation = %d", backlog[0].Generation)
	}
	if backlog[0].Diff == nil {
		t.Fatal("event carries no diff")
	}
}

func TestApplyUpdateDeleteWhere(t *testing.T) {
	h, url, st := evolvingTool(t)
	res, err := h.ApplyUpdate(context.Background(), url,
		`DELETE WHERE { <http://ex/b1> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 3 || res.Added != 0 {
		t.Fatalf("delta = +%d/-%d, want +0/-3", res.Added, res.Removed)
	}
	if st.Len() != 2 {
		t.Fatalf("store len = %d, want 2", st.Len())
	}
	// Book lost its only instance: the maintained summary drops the class
	s, err := h.Summary(url)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Nodes {
		if n.IRI == "http://ex/Book" {
			t.Fatal("Book still in summary after its last instance was deleted")
		}
	}
	if res.Diff == nil || len(res.Diff.RemovedClasses) != 1 {
		t.Fatalf("diff = %+v, want one removed class", res.Diff)
	}
}

func TestApplyUpdateErrors(t *testing.T) {
	h, url, _ := evolvingTool(t)
	ctx := context.Background()
	if _, err := h.ApplyUpdate(ctx, url, "INSERT GARBAGE"); err == nil {
		t.Fatal("syntax error not reported")
	}
	if _, err := h.ApplyUpdate(ctx, "http://unknown/sparql", `INSERT DATA { <http://x/a> a <http://x/C> }`); err == nil {
		t.Fatal("unknown dataset not reported")
	}
}

// TestApplyUpdateCorpusMode: with a corpus directory the update writes
// through to the persistent replica — a fresh instance over the same
// directory serves the post-update statements with no client connected.
func TestApplyUpdateCorpusMode(t *testing.T) {
	dir := t.TempDir()
	url := "http://evolving.example.org/sparql"
	src := store.FromGraph(turtle.MustParse(`
@prefix ex: <http://ex/> .
ex:a1 a ex:Author ; ex:name "A1" .
`))
	{
		h := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
		h.CorpusDir = dir
		h.Registry.Add(registry.Entry{URL: url, AddedAt: clock.Epoch})
		h.Connect(url, endpoint.LocalClient{Store: src})
		if err := h.Process(url); err != nil {
			t.Fatal(err)
		}
		res, err := h.ApplyUpdate(context.Background(), url, `
INSERT DATA { <http://ex/a2> a <http://ex/Author> }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Added != 1 {
			t.Fatalf("delta = %+v", res)
		}
		h.Close()
	}
	// second life: no client, just the directory
	h := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	h.CorpusDir = dir
	t.Cleanup(h.Close)
	ds, err := h.Corpus(url)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Fatalf("recovered corpus len = %d, want 3 (2 seeded + 1 updated)", ds.Len())
	}
}
