package store_test

// The Turtle load path: turtle.Each straight into Store.Add, one Flush.
// It must build the store the two-pass path (turtle.Parse, then
// FromGraph) builds, keep no reference into the parsed document, and
// allocate a bounded amount per triple.

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

func TestLoadMatchesParseThenFromGraph(t *testing.T) {
	docs := map[string]string{"synth-500.nt": corpusNT(500)}
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
			want, got := store.FromGraph(g).Reader(), loadTurtle(t, src).Reader()
			if got.MaxID() != want.MaxID() || got.Len() != want.Len() {
				t.Fatalf("MaxID %d, %d triples; the two-pass load has %d, %d",
					got.MaxID(), got.Len(), want.MaxID(), want.Len())
			}
			for id := store.ID(1); id <= want.MaxID(); id++ {
				if got.Term(id) != want.Term(id) {
					t.Fatalf("Term(%d) = %v, the two-pass load has %v", id, got.Term(id), want.Term(id))
				}
			}
			if a, b := triples(got), triples(want); !slices.Equal(a, b) {
				t.Fatalf("EachTriple differs: %d triples vs %d", len(a), len(b))
			}
		})
	}
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
// the serving benchmark's 152,708-triple corpus it makes 1.81 allocations
// (252 B) per triple (BenchmarkLoadNTriples), 4.36 (376 B) while every
// postings entry had a list of its own and the dictionary was a map, and
// the two-pass load that built every token byte by byte made 16.78
// (1,764 B). The 2,000-instance corpus below reads 1.92, and 2.20 under
// the race detector; the gate is that rounded up to the half.
const maxLoadAllocsPerTriple = 2.5

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

// The footprint gates of a loaded store, on the serving benchmark's
// 152,708-triple corpus: what stays on the heap per triple once the load
// is done and a collection has run. The packed postings leaves and the
// ID-only dictionary hold it at 109.7 B and 0.917 heap objects per triple
// (the same under the race detector); a leaf of entries that
// each carried their own list, beside a map that held a second copy of
// every term, held 203.5 B and 1.927. The byte gate is 10 % over the
// figure; 10 % over the object figure is 1.01, and the gate is 1.
const (
	maxRetainedBytesPerTriple   = 121
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
		st.Len(), st.TermCount(), bytes, objects)
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
