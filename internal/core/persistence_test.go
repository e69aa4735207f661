package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/update"
)

// TestRestartDurability verifies that a file-backed instance survives a
// restart: the registry, the indexes, the summaries and the cluster
// schemas all come back, and the §3.1 schedule continues where it left
// off.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	url := "http://scholarly.example.org/sparql"

	// first life: index the dataset and persist
	{
		db, err := docstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ck := clock.NewSim(clock.Epoch)
		tool := New(db, ck)
		tool.Registry.Add(registry.Entry{URL: url, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: ck.Now()})
		tool.Connect(url, endpoint.LocalClient{Store: synth.Scholarly(1)})
		if err := tool.Process(url); err != nil {
			t.Fatal(err)
		}
		if err := tool.SaveState(); err != nil {
			t.Fatal(err)
		}
	}

	// second life: a fresh instance over the same directory
	db, err := docstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck := clock.NewSim(clock.Epoch.Add(24 * time.Hour)) // the next day
	tool := New(db, ck)
	if err := tool.LoadState(); err != nil {
		t.Fatal(err)
	}
	if tool.Registry.Len() != 1 || tool.Registry.IndexedCount() != 1 {
		t.Fatalf("registry not restored: %d entries, %d indexed",
			tool.Registry.Len(), tool.Registry.IndexedCount())
	}
	// artifacts still readable
	s, err := tool.Summary(url)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClasses() != synth.ScholarlyClassCount() {
		t.Fatalf("summary classes = %d", s.NumClasses())
	}
	cs, err := tool.ClusterSchema(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	// exploration works on the restored summary (NodeByIRI reindexes)
	ex, err := tool.Explore(url, synth.ScholarlyNS+"Event")
	if err != nil {
		t.Fatal(err)
	}
	ex.ExpandAll()
	if !ex.Complete() {
		t.Fatal("exploration broken after restart")
	}
	// the schedule resumes: one day after extraction, nothing is due
	if due := tool.Registry.Due(ck.Now()); len(due) != 0 {
		t.Fatalf("due after restart = %v", due)
	}
	// ... until the weekly refresh
	if due := tool.Registry.Due(clock.Epoch.Add(8 * 24 * time.Hour)); len(due) != 1 {
		t.Fatalf("weekly refresh lost after restart")
	}
	// the dataset list is intact
	if ds := tool.Datasets(); len(ds) != 1 || ds[0].Classes != synth.ScholarlyClassCount() {
		t.Fatalf("datasets after restart = %+v", ds)
	}
}

func TestLoadStateFreshInstance(t *testing.T) {
	tool := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	if err := tool.LoadState(); err != nil {
		t.Fatalf("fresh LoadState must be a no-op, got %v", err)
	}
}

// TestRestartLoadNeverOverwritesACommit (run with -race): in a second
// life the stored state is decoded by whoever touches the dataset first.
// Readers and an update race for that on every round; no reader may see
// less than the stored generation, see it go backwards, or end below the
// update's — the load must never publish over a commit.
func TestRestartLoadNeverOverwritesACommit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	url := "http://scholarly.example.org/sparql"
	const firstLife = `INSERT DATA { <http://ex/a2> a <http://ex/Author> }`
	// a corpus whose documents take long enough to decode for the race
	// to have a window
	corpus := func() *store.Store { return synth.Scholarly(1) }
	open := func(st *store.Store) *HBOLD {
		db, err := docstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := New(db, clock.NewSim(clock.Epoch))
		t.Cleanup(h.Close)
		h.Connect(url, endpoint.LocalClient{Store: st})
		return h
	}
	h := open(corpus())
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ApplyUpdate(ctx, url, firstLife); err != nil {
		t.Fatal(err)
	}
	if err := h.SaveState(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 15; round++ {
		st := corpus()
		if _, err := update.ApplyText(ctx, st, firstLife); err != nil {
			t.Fatal(err)
		}
		h := open(st)
		var done atomic.Bool
		var readers sync.WaitGroup
		for r := 0; r < 3; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				last := uint64(2)
				for !done.Load() {
					g := h.Generation(url)
					if g < last {
						t.Errorf("round %d: generation %d after %d", round, g, last)
						return
					}
					last = g
				}
			}()
		}
		res, err := h.ApplyUpdate(ctx, url, fmt.Sprintf(`INSERT DATA { <http://ex/r%d> a <http://ex/Author> }`, round))
		done.Store(true)
		readers.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if g := h.Generation(url); res.Generation != 3 || g != 3 {
			t.Fatalf("round %d: update committed generation %d, readers now see %d, want 3", round, res.Generation, g)
		}
	}
}
