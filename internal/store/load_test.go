package store_test

// The Turtle load path: turtle.Each straight into a Builder, one sorted
// pass. It must build the store the update path (one Store.Add per
// triple, then Flush) and the two-pass path (turtle.Parse, then
// FromGraph) build, keep no reference into the parsed document, and
// allocate a bounded amount per triple.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// loadTurtle is the one-pass load hbold sparqld runs.
func loadTurtle(tb testing.TB, src string) *store.Store {
	tb.Helper()
	b := store.NewBuilder()
	if err := turtle.Each(src, b.Add); err != nil {
		tb.Fatal(err)
	}
	return b.Store()
}

// addTurtle loads src through the update path: one Store.Add a triple.
func addTurtle(tb testing.TB, src string) *store.Store {
	tb.Helper()
	st := store.New()
	if err := turtle.Each(src, func(t rdf.Triple) { st.Add(t) }); err != nil {
		tb.Fatal(err)
	}
	st.Flush()
	return st
}

// corpusNT is the synthetic corpus at the given instance count as the
// N-Triples document the serving benchmark hands hbold sparqld.
func corpusNT(instances int) string {
	return turtle.WriteNTriples(benchCorpus(instances).Graph())
}

// edgesNT is a document with duplicate triples, one (subject, predicate)
// list of 600 objects — longer than a postings leaf's ID bound of 512, so
// it is a one-key leaf of its own — and a predicate over more than a
// leaf's 64 keys.
func edgesNT() string {
	var b strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&b, "<http://ex/hub> <http://ex/p> \"v%d\" .\n", i)
		fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/q> <http://ex/o%d> .\n", i%97, i)
		if i%7 == 0 {
			fmt.Fprintf(&b, "<http://ex/hub> <http://ex/p> \"v%d\" .\n", i/2)
			fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/q> <http://ex/o%d> .\n", i%97, i)
		}
	}
	return b.String()
}

func TestLoadMatchesParseThenFromGraph(t *testing.T) {
	docs := map[string]string{"synth-500.nt": corpusNT(500), "edges.nt": edgesNT()}
	files, err := filepath.Glob(filepath.Join("..", "testsuite", "testdata", "data", "*.ttl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance data files: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(path)] = string(raw)
	}
	for name, src := range docs {
		t.Run(name, func(t *testing.T) {
			g, err := turtle.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			got := loadTurtle(t, src).Reader()
			sameStore(t, "Store.Add", got, addTurtle(t, src).Reader())
			sameStore(t, "Parse then FromGraph", got, store.FromGraph(g).Reader())
		})
	}
}

// sameStore fails unless the built store got answers every read as want
// does: the same term for every ID, the same counts, and the same runs,
// in the same order, for every pattern shape.
func sameStore(t *testing.T, path string, got, want *store.Reader) {
	t.Helper()
	if got.MaxID() != want.MaxID() || got.Len() != want.Len() {
		t.Fatalf("MaxID %d, %d triples; through %s, %d, %d", got.MaxID(), got.Len(), path, want.MaxID(), want.Len())
	}
	pats := []store.IDPattern{{}}
	for id := store.ID(1); id <= want.MaxID(); id++ {
		if got.Term(id) != want.Term(id) {
			t.Fatalf("Term(%d) = %v; through %s, %v", id, got.Term(id), path, want.Term(id))
		}
		if a, b := got.CardinalityIDs(store.IDPattern{P: id}), want.CardinalityIDs(store.IDPattern{P: id}); a != b {
			t.Fatalf("CardinalityIDs(? %d ?) = %d; through %s, %d", id, a, path, b)
		}
		pats = append(pats, store.IDPattern{S: id}, store.IDPattern{P: id}, store.IDPattern{O: id})
	}
	store.EachTriple(want, store.IDPattern{}, func(s, p, o store.ID) bool {
		pats = append(pats, store.IDPattern{S: s, P: p}, store.IDPattern{P: p, O: o}, store.IDPattern{S: s, O: o},
			store.IDPattern{S: s, P: p, O: o}, store.IDPattern{S: s, P: p, O: o%want.MaxID() + 1})
		return true
	})
	for _, pat := range pats {
		if a, b := runsOf(got, pat), runsOf(want, pat); !slices.EqualFunc(a, b, sameRun) {
			t.Fatalf("Runs(%+v): %d runs; through %s, %d", pat, len(a), path, len(b))
		}
	}
}

// runsOf returns the pattern's runs key by key, in Runs order: where the
// leaves are cut is the tier's, and a store built one way may cut them
// where one built another does not.
func runsOf(r store.ReaderAPI, pat store.IDPattern) []store.Run {
	var out []store.Run
	r.Runs(pat, func(rn store.Run) bool {
		for i, key := range rn.Keys {
			one := rn
			one.Keys, one.Ends, one.IDs = []store.ID{key}, nil, slices.Clone(rn.List(i))
			out = append(out, one)
		}
		return true
	})
	return out
}

func sameRun(a, b store.Run) bool {
	return a.S == b.S && a.P == b.P && a.O == b.O && a.Key == b.Key && a.At == b.At &&
		slices.Equal(a.Keys, b.Keys) && slices.Equal(a.IDs, b.IDs)
}

func triples(r store.ReaderAPI) [][3]store.ID {
	var out [][3]store.ID
	store.EachTriple(r, store.IDPattern{}, func(s, p, o store.ID) bool {
		out = append(out, [3]store.ID{s, p, o})
		return true
	})
	return out
}

// loadFromBuffer loads the document held in buf, seen as a string that
// shares buf's memory, the way a caller that reads a file and converts it
// without a copy would.
//
//go:noinline
func loadFromBuffer(tb testing.TB, buf []byte) *store.Store {
	return loadTurtle(tb, unsafe.String(&buf[0], len(buf)))
}

// The parser hands out substrings of the document; the store copies a
// term's strings when it first interns the term, so once the load
// returns, the document is garbage while the store lives on.
func TestLoadDoesNotPinTheDocument(t *testing.T) {
	doc := corpusNT(50) + "_:b <http://ex/p> \"x\"@en-GB, \"y\"@fr .\n<http://ex/s> <http://ex/p> \"1\"^^<http://ex/dt> .\n"
	buf := []byte(doc)
	alive := weak.Make(&buf[0])
	st := loadFromBuffer(t, buf)
	buf = nil
	runtime.GC()
	runtime.GC()
	if alive.Value() != nil {
		t.Fatal("the document is still reachable after the load: the store keeps strings that share its memory")
	}
	if g, err := turtle.Parse(doc); err != nil || st.Len() != g.Len() {
		t.Fatalf("store has %d triples, the document %d (%v)", st.Len(), g.Len(), err)
	}
	runtime.KeepAlive(st)
}

// loadAllocs loads src once and reports heap allocations and bytes per
// triple. The figures are counts, not timings: they do not depend on the
// host.
func loadAllocs(tb testing.TB, src string, load func(string) *store.Store) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := load(src)
	runtime.ReadMemStats(&m1)
	n := float64(st.Len())
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

func parseThenFromGraph(tb testing.TB) func(string) *store.Store {
	return func(src string) *store.Store {
		g, err := turtle.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		return store.FromGraph(g)
	}
}

// maxLoadAllocsPerTriple is the allocation gate of the one-pass load. On
// the serving benchmark's 152,708-triple corpus it makes 0.92 allocations
// (275 B) per triple (BenchmarkLoadNTriples) through the Builder, 1.81
// (252 B) through one Store.Add a triple, 4.36 (376 B) while every
// postings entry had a list of its own and the dictionary was a map, and
// the two-pass load that built every token byte by byte made 16.78
// (1,764 B). The 2,000-instance corpus below reads 0.99, the same under
// the race detector; it read 1.20 while every literal built its quote
// delimiter with strings.Repeat. The gate is 1.1.
const maxLoadAllocsPerTriple = 1.1

// The two-pass figure it logs is today's Parse (substring tokens too)
// then FromGraph, for contrast; only the one-pass load is gated.
func TestLoadAllocationsPerTriple(t *testing.T) {
	src := corpusNT(2000)
	allocs, bytes := loadAllocs(t, src, func(s string) *store.Store { return loadTurtle(t, s) })
	twoAllocs, twoBytes := loadAllocs(t, src, parseThenFromGraph(t))
	t.Logf("per triple: one-pass load %.2f allocations, %.0f B; Parse then FromGraph %.2f allocations, %.0f B",
		allocs, bytes, twoAllocs, twoBytes)
	if allocs > maxLoadAllocsPerTriple {
		t.Errorf("the load makes %.2f allocations per triple, over the gate of %.1f", allocs, maxLoadAllocsPerTriple)
	}
}

// maxProbesPerTriple is the dictionary-probe gate of the one-pass load:
// dict.find calls per triple the Builder takes. Interning every term of
// every triple is 3.00; the serving benchmark's corpus lists each of its
// 20,000 subjects' triples together, so a subject that repeats the last
// triple's is not looked up again, and the load reads 2.13.
const maxProbesPerTriple = 2.2

func TestLoadProbesPerTriple(t *testing.T) {
	doc := corpusNT(20000)
	b := store.NewBuilder()
	n := 0
	probes := store.CountProbes()
	err := turtle.Each(doc, func(tr rdf.Triple) {
		b.Add(tr)
		n++
	})
	per := float64(probes()) / float64(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d triples, %d terms: %.2f dictionary probes per triple", n, b.Store().Reader().MaxID(), per)
	if per > maxProbesPerTriple {
		t.Errorf("the load probes the dictionary %.2f times per triple, over the gate of %.1f", per, maxProbesPerTriple)
	}
}

// A term's empty datatype or language tag is a nil string, not an empty
// slice of a slab: the collector scans the whole term table at every
// cycle, and a pointer it must look up costs it even where the string is
// empty. The serving corpus has neither, so that was 2 of every term's 3
// pointers; now each term has 1.
func TestEmptyTermStringsHoldNoPointer(t *testing.T) {
	for name, load := range map[string]func(testing.TB, string) *store.Store{"Builder": loadTurtle, "Store.Add": addTurtle} {
		r := load(t, corpusNT(2000)).Reader()
		pointers := 0
		for id := store.ID(1); id <= r.MaxID(); id++ {
			term := r.Term(id)
			for _, s := range []string{term.Value, term.Datatype, term.Lang} {
				if s == "" && unsafe.StringData(s) != nil {
					t.Fatalf("%s: term %d (%v) keeps a pointer in an empty string", name, id, term)
				}
				if s != "" {
					pointers++
				}
			}
		}
		t.Logf("%s: %d terms, %.2f string pointers a term", name, r.MaxID(), float64(pointers)/float64(r.MaxID()))
	}
}

// A dictionary growth re-probes every term. The update path hashes each
// term again to do it: on the serving benchmark's 20,000-instance corpus
// (49,845 terms, 13 doublings) that is 1.31 extra hashes per interned
// term. The Builder keeps each term's hash for the length of the load
// and hashes a term only to probe for it.
func TestLoadHashesEachTermOnce(t *testing.T) {
	doc := corpusNT(20000)
	rehashes := func(load func(string) *store.Store) float64 {
		hashes, probes := store.CountHashes(), store.CountProbes()
		st := load(doc)
		h, p := hashes(), probes()
		return float64(h-p) / float64(st.Reader().MaxID())
	}
	built := rehashes(func(s string) *store.Store { return loadTurtle(t, s) })
	added := rehashes(func(s string) *store.Store { return addTurtle(t, s) })
	t.Logf("hashes a growth takes per interned term: %.2f through the Builder, %.2f through Store.Add", built, added)
	if built != 0 {
		t.Errorf("the load hashes %.2f terms per interned term again as the dictionary grows; want 0", built)
	}
	if added == 0 {
		t.Error("Store.Add's growths hashed nothing: the count does not see a rehash")
	}
}

// The footprint gates of a loaded store, on the serving benchmark's
// 152,708-triple corpus: what stays on the heap per triple once the load
// is done and a collection has run. Leaves the Builder packs at their
// final size hold it at 102.0 B and 0.914 heap objects per triple (the
// same under the race detector); leaves grown one Store.Add at a time
// kept their spare capacity, 109.7 B and 0.917; a leaf of entries that
// each carried their own list, beside a map that held a second copy of
// every term, held 203.5 B and 1.927. The byte gate is 4 % over the
// figure, below the 109.7 B of leaves with room to spare; 10 % over the
// object figure is 1.005, and the gate is 1.
const (
	maxRetainedBytesPerTriple   = 106
	maxRetainedObjectsPerTriple = 1.0
)

// Both figures are counts of the heap, taken with the document alive
// before and after, so only what the store keeps is counted.
func TestStoreFootprintPerTriple(t *testing.T) {
	doc := corpusNT(20000)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	st := loadTurtle(t, doc)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	n := float64(st.Len())
	bytes := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / n
	objects := float64(int64(m1.HeapObjects)-int64(m0.HeapObjects)) / n
	t.Logf("%d triples, %d terms: the store retains %.1f B and %.3f heap objects per triple",
		st.Len(), st.Reader().MaxID(), bytes, objects)
	if bytes > maxRetainedBytesPerTriple {
		t.Errorf("the store retains %.1f B per triple, over the gate of %d", bytes, maxRetainedBytesPerTriple)
	}
	if objects > maxRetainedObjectsPerTriple {
		t.Errorf("the store retains %.3f heap objects per triple, over the gate of %.1f", objects, maxRetainedObjectsPerTriple)
	}
	runtime.KeepAlive(doc)
	runtime.KeepAlive(st)
}

// BenchmarkLoadNTriples times both load paths over the serving benchmark's
// corpus document and reports their work per triple.
func BenchmarkLoadNTriples(b *testing.B) {
	src := corpusNT(20000)
	for _, c := range []struct {
		name string
		load func(string) *store.Store
	}{
		{"each", func(s string) *store.Store { return loadTurtle(b, s) }},
		{"parse+fromgraph", parseThenFromGraph(b)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += c.load(src).Len()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/triple")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(n), "allocs/triple")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B/triple")
		})
	}
}
