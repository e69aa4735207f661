package core

// Tests for the live mutation path: ApplyUpdate mutates the writable
// tier, repairs every derived artifact incrementally (the maintained
// index must equal a fresh extraction), bumps the generation so cached
// snapshots stop validating, records the schema diff, and publishes a
// change-feed event. In corpus mode the tier it mutates is the persistent
// replica, which is also what the dataset's queries read.

import (
	"context"
	"os"
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
	const insert = `INSERT DATA { <http://x/a> a <http://x/C> }`
	if _, err := h.ApplyUpdate(ctx, "http://unknown/sparql", insert); err == nil {
		t.Fatal("unknown dataset not reported")
	}
	// with a corpus directory too: the URL may be request input, and
	// refusing it must not have created its data directory on the way
	h.CorpusDir = t.TempDir()
	if _, err := h.ApplyUpdate(ctx, "http://unknown/sparql", insert); err == nil {
		t.Fatal("unknown dataset not reported in corpus mode")
	}
	if entries, _ := os.ReadDir(h.CorpusDir); len(entries) != 0 {
		t.Fatalf("refusing an unknown dataset left %d entries in the corpus directory", len(entries))
	}
}

// countAuthors asks the dataset's own query path — the client /api/query
// streams from — how many authors there are.
func countAuthors(t *testing.T, h *HBOLD, url string) string {
	t.Helper()
	c, err := h.EndpointClient(url)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), `SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://ex/Author> }`)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0]["n"].Value
}

// TestApplyUpdateCorpusMode: with a corpus directory the update lands in
// the replica the dataset's queries read — in this life, and in a fresh
// instance over the same directories with no client connected.
func TestApplyUpdateCorpusMode(t *testing.T) {
	dir := t.TempDir()
	url := "http://evolving.example.org/sparql"
	h := openLife(t, dir)
	h.Registry.Add(registry.Entry{URL: url, AddedAt: clock.Epoch})
	h.Connect(url, endpoint.LocalClient{Store: store.FromGraph(turtle.MustParse(`
@prefix ex: <http://ex/> .
ex:a1 a ex:Author ; ex:name "A1" .
`))})
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
	if n := countAuthors(t, h, url); n != "2" {
		t.Fatalf("the dataset's queries see %s authors after the update, want 2", n)
	}
	if err := h.DB.Flush(); err != nil {
		t.Fatal(err)
	}
	h.Close()

	// second life: no client, just the directories
	h = openLife(t, dir)
	t.Cleanup(h.Close)
	if n := countAuthors(t, h, url); n != "2" {
		t.Fatalf("the restarted dataset's queries see %s authors, want 2", n)
	}
	if _, err := h.ApplyUpdate(context.Background(), url, `DELETE DATA { <http://ex/a2> a <http://ex/Author> }`); err != nil {
		t.Fatal(err)
	}
	if n := countAuthors(t, h, url); n != "1" {
		t.Fatalf("the restarted dataset's queries see %s authors after a delete, want 1", n)
	}
}
