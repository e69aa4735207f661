package disk

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/synth"
)

// nestedWalk is a join's access pattern written out by hand: an outer
// scan of the typed subjects (from the skip-th on, at most 40 of them)
// whose callback scans each subject's triples, whose callback in turn
// counts, lists and scans around each object — three scans deep, the
// innermost abandoned early. It returns everything it saw, in order.
func nestedWalk(r store.ReaderAPI, skip int) []store.ID {
	var seen []store.ID
	typ := r.Lookup(rdf.NewIRI(rdf.RDFType))
	outer := 0
	r.MatchIDs(store.IDPattern{P: typ}, func(s, _, class store.ID) bool {
		if outer++; outer <= skip {
			return true
		}
		seen = append(seen, s, class)
		r.MatchIDs(store.IDPattern{S: s}, func(_, p, o store.ID) bool {
			seen = append(seen, p, o, store.ID(r.CardinalityIDs(store.IDPattern{S: o})))
			r.Runs(store.IDPattern{S: o, P: typ}, func(rn store.Run) bool {
				seen = append(seen, rn.IDs...)
				return true
			})
			inner := 0
			r.MatchIDs(store.IDPattern{O: o}, func(s2, p2, _ store.ID) bool {
				seen = append(seen, s2, p2)
				inner++
				return inner < 3
			})
			return true
		})
		return outer < skip+40
	})
	return seen
}

// guardedReader counts the scans in progress on a Reader and records the
// most that were live when Release ran; guardedStore hands one out as
// each query's snapshot. It hands each run on one ID at a time, so a
// Close lands on the row it names.
type guardedReader struct {
	*Reader
	live, releases, liveAtRelease int
}

func (g *guardedReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	g.live++
	defer func() { g.live-- }()
	return g.Reader.Runs(pat, func(rn store.Run) bool {
		return rn.Singles(fn)
	})
}

func (g *guardedReader) Release() {
	g.releases++
	g.liveAtRelease = max(g.liveAtRelease, g.live)
	g.Reader.Release()
}

type guardedStore struct {
	*Store
	rd *guardedReader
}

func (s *guardedStore) Snapshot() store.ReaderAPI {
	s.rd = &guardedReader{Reader: s.snapshotReader()}
	return s.rd
}

// TestCloseInsideRangeEndsAfterTheProducer: Close from inside a Terms
// loop body, in the middle of a nested join, stops the stream at once,
// but OnClose — and with it the snapshot's Release — runs only after the
// producer has unwound: no scan is in progress when the reader goes, and
// none puts a cursor back on it afterwards. Run under -race.
func TestCloseInsideRangeEndsAfterTheProducer(t *testing.T) {
	mem := synth.Generate(synth.Spec{Name: "closeinside", Classes: 4, Instances: 200, ObjectProps: 4, DataProps: 3, LinkFactor: 2, Seed: 7})
	ds, err := Open(t.TempDir(), Options{KV: kv.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	gs := &guardedStore{Store: ds}
	rs, err := sparql.StreamExec(context.Background(), gs, `SELECT ?s ?c ?p ?o WHERE { ?s a ?c . ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	closes, liveAtClose := 0, -1
	rs.OnClose(func() { closes, liveAtClose = closes+1, gs.rd.live })
	const stopAt = 50
	rows := 0
	for range rs.Terms() {
		if rows++; rows == stopAt {
			rs.Close()
			if closes != 0 || gs.rd.releases != 0 {
				t.Fatalf("Close inside the loop body ran OnClose (%d) or Release (%d) under %d live scans", closes, gs.rd.releases, gs.rd.live)
			}
		}
	}
	if rows != stopAt || rs.Err() != nil {
		t.Fatalf("%d rows, Err %v; want the %d before Close and no error", rows, rs.Err(), stopAt)
	}
	if closes != 1 || liveAtClose != 0 {
		t.Fatalf("OnClose ran %d times, with %d scans live; want once, with none", closes, liveAtClose)
	}
	if gs.rd.releases == 0 || gs.rd.liveAtRelease != 0 || len(gs.rd.idle) != 0 {
		t.Fatalf("Release ran %d times, with up to %d scans live, leaving %d cursors on the reader; want it run with none live and none left", gs.rd.releases, gs.rd.liveAtRelease, len(gs.rd.idle))
	}
}

// TestReaderNestedAndConcurrentScans: one Reader, eight goroutines, each
// running nested scans that take and return standing cursors at three
// depths; every goroutine must see what the memory tier sees, row for
// row. Release then leaves no cursor behind, and a fresh reader answers
// the same. Run under -race: two goroutines sharing a cursor would show
// here.
func TestReaderNestedAndConcurrentScans(t *testing.T) {
	mem := synth.Generate(synth.Spec{
		Name: "nested", Classes: 6, Instances: 400, ObjectProps: 8,
		DataProps: 5, LinkFactor: 2, CommunitySeeds: 2, Seed: 11,
	})
	ds, err := Open(t.TempDir(), Options{KV: kv.Options{NoSync: true, MemtableBytes: 4 << 10, MaxSegments: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	// Three rounds of notes on existing subjects, each round its own
	// segment, and then their deletion: the triples are the memory tier's
	// again, spread over segments whose key ranges interleave, under
	// tombstones.
	var notes []rdf.Triple
	mr := mem.Reader()
	for round := 0; round < 3; round++ {
		for id := store.ID(1 + round); id <= mr.MaxID(); id += 7 {
			if s := mr.Term(id); s.IsIRI() {
				notes = append(notes, rdf.Triple{S: s, P: rdf.NewIRI("http://example.org/note"), O: rdf.NewLiteral(fmt.Sprint(round, id))})
			}
		}
	}
	for i, tr := range notes {
		if _, err := ds.Insert(tr); err != nil {
			t.Fatal(err)
		}
		if i%(len(notes)/3) == 0 {
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tr := range notes {
		if ok, err := ds.Delete(tr); err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", tr, ok, err)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := ds.KVStats(); st.Segments < 4 {
		t.Fatalf("want a cursor with several children, got %+v", st)
	}

	const goroutines = 8
	want := make([][]store.ID, goroutines)
	for g := range want {
		if want[g] = nestedWalk(mem.Reader(), 30*g); len(want[g]) < 400 {
			t.Fatalf("walk %d saw only %d IDs; the test no longer checks anything", g, len(want[g]))
		}
	}
	r := ds.snapshotReader()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if got := nestedWalk(r, 30*g); !slices.Equal(got, want[g]) {
					t.Errorf("goroutine %d round %d: disk tier saw %d IDs, memory tier %d, or not the same ones", g, round, len(got), len(want[g]))
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.idle); n < 3 || n > 3*goroutines {
		t.Errorf("%d standing cursors after three-deep scans from %d goroutines", n, goroutines)
	}
	before := ds.KVStats()
	if got := nestedWalk(r, 0); !slices.Equal(got, want[0]) {
		t.Error("a walk on the standing cursors differs from the memory tier")
	}
	after := ds.KVStats()
	if after.SeeksInPlace == before.SeeksInPlace {
		t.Errorf("none of %d child seeks was answered in place: the scans are not getting their cursors back", after.Seeks-before.Seeks)
	}
	r.Release()
	if len(r.idle) != 0 {
		t.Errorf("Release left %d cursors reachable from the reader", len(r.idle))
	}
	fresh := ds.snapshotReader()
	defer fresh.Release()
	if got := nestedWalk(fresh, 0); !slices.Equal(got, want[0]) {
		t.Error("a fresh reader differs from the memory tier")
	}
}
