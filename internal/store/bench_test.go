package store_test

// Layer benchmarks of the memory tier on the serving benchmark's corpus
// (synth.DefaultSpec("bench", 1): 152,708 triples at 20000 instances), and
// the gate that keeps a small commit's cost independent of corpus size.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/synth"
)

func benchCorpus(instances int) *store.Store {
	spec := synth.DefaultSpec("bench", 1)
	spec.Instances = instances
	return synth.Generate(spec)
}

// BenchmarkMatchIDs times one MatchIDs call per iteration, cycling over
// patterns of one shape drawn from the corpus.
func BenchmarkMatchIDs(b *testing.B) {
	r := benchCorpus(20000).Reader()
	typeID := r.Lookup(rdf.NewIRI(rdf.RDFType))
	shapes := map[string][]store.IDPattern{"all": {{}}}
	// every 16th subject with its first predicate, and its first object
	n := 0
	last := store.NoID
	r.MatchIDs(store.IDPattern{}, func(s, p, o store.ID) bool {
		if s != last {
			if last = s; n%16 == 0 {
				shapes["s"] = append(shapes["s"], store.IDPattern{S: s})
				shapes["sp"] = append(shapes["sp"], store.IDPattern{S: s, P: p})
				shapes["o"] = append(shapes["o"], store.IDPattern{O: o})
			}
			n++
		}
		return true
	})
	for id := store.ID(1); id <= r.MaxID(); id++ {
		if r.PredCount(id) > 0 {
			shapes["p"] = append(shapes["p"], store.IDPattern{P: id})
		}
		if len(r.Subjects(typeID, id)) > 0 {
			shapes["po"] = append(shapes["po"], store.IDPattern{P: typeID, O: id})
		}
	}
	for _, name := range []string{"s", "sp", "po", "p", "o", "all"} {
		pats := shapes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			triples := 0
			for i := 0; i < b.N; i++ {
				r.MatchIDs(pats[i%len(pats)], func(_, _, _ store.ID) bool { triples++; return true })
			}
			b.ReportMetric(float64(triples)/float64(b.N), "triples/op")
		})
	}
}

// BenchmarkLoad times FromGraph on the corpus: a bulk load in one epoch.
func BenchmarkLoad(b *testing.B) {
	g := benchCorpus(20000).Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := store.FromGraph(g); st.Len() != g.Len() {
			b.Fatalf("loaded %d of %d triples", st.Len(), g.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/triple")
}

// committer replays the serving benchmark's small update against a store:
// twelve triples on three fresh subjects of the largest class — a type, a
// fresh literal, a literal the corpus already holds and a link to an
// existing instance each, so fresh IDs and mid-range ones both take part —
// committed, then deleted and committed again, while a reader holds the
// generation before each commit.
type committer struct {
	st       *store.Store
	class    rdf.Term
	dataProp rdf.Term
	shared   rdf.Term // a literal some instance already carries
	linkProp rdf.Term
	targets  []rdf.Term
	round    int
	held     *store.Reader
}

func newCommitter(tb testing.TB, st *store.Store) *committer {
	c := &committer{st: st, class: st.Classes()[0].Class}
	st.InstancesOf(c.class, func(s rdf.Term) bool {
		c.targets = append(c.targets, s)
		return len(c.targets) < 64
	})
	st.Match(store.Pattern{}, func(t rdf.Triple) bool {
		switch {
		case t.P.Value == rdf.RDFType:
		case t.O.IsLiteral() && c.dataProp.IsZero():
			c.dataProp, c.shared = t.P, t.O
		case t.O.IsIRI() && c.linkProp.IsZero():
			c.linkProp = t.P
		}
		return c.dataProp.IsZero() || c.linkProp.IsZero()
	})
	if c.dataProp.IsZero() || c.linkProp.IsZero() || len(c.targets) == 0 {
		tb.Fatal("the corpus has no datatype property, no object property or no instance to link to")
	}
	return c
}

// commitPair makes the two commits of one round and returns the triples.
func (c *committer) commitPair(tb testing.TB) {
	c.round++
	typeT := rdf.NewIRI(rdf.RDFType)
	var batch []rdf.Triple
	for j := 0; j < 3; j++ {
		s := rdf.NewIRI(fmt.Sprintf("http://bench.example.org/w/r%d/s%d", c.round, j))
		batch = append(batch,
			rdf.NewTriple(s, typeT, c.class),
			rdf.NewTriple(s, c.dataProp, rdf.NewLiteral(fmt.Sprintf("~w-r%d-s%d", c.round, j))),
			rdf.NewTriple(s, c.dataProp, c.shared),
			rdf.NewTriple(s, c.linkProp, c.targets[(c.round*3+j)%len(c.targets)]),
		)
	}
	before := c.st.Len()
	c.held = c.st.Reader()
	for _, t := range batch {
		c.st.Add(t)
	}
	c.st.Flush()
	mid := c.st.Reader()
	for _, t := range batch {
		c.st.Remove(t)
	}
	c.st.Flush()
	if c.held.Len() != before || mid.Len() != before+len(batch) || c.st.Len() != before {
		tb.Fatalf("round %d: %d → %d → %d triples, want %d → %d → %d",
			c.round, c.held.Len(), mid.Len(), c.st.Len(), before, before+len(batch), before)
	}
}

// BenchmarkCommit12 reports the cost of one round (two 12-triple commits)
// on the serving corpus and on one a tenth its size.
func BenchmarkCommit12(b *testing.B) {
	for _, instances := range []int{20000, 2000} {
		b.Run(fmt.Sprint(instances), func(b *testing.B) {
			c := newCommitter(b, benchCorpus(instances))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.commitPair(b)
			}
		})
	}
}

// TestCommitCostIsBounded is the write-cost gate: what a 12-triple commit
// allocates is bounded by the chunks and leaves it touches, not by the
// corpus or by the posting lists it lands in. pos[rdf:type] has one
// posting per instance of the class and pos[dataProp] one key per distinct
// literal; copying either whole would show here as a figure that grows
// tenfold with the corpus.
func TestCommitCostIsBounded(t *testing.T) {
	perCommit := func(instances int) float64 {
		c := newCommitter(t, benchCorpus(instances))
		c.commitPair(t) // the first round pays for growing the term table
		const rounds = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			c.commitPair(t)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / (2 * rounds)
	}
	large, small := perCommit(20000), perCommit(2000)
	t.Logf("bytes per 12-triple commit: %.0f on 20000 instances, %.0f on 2000", large, small)
	if large > 256<<10 {
		t.Errorf("a 12-triple commit allocates %.0f bytes on the large corpus, over the 256 KiB budget", large)
	}
	if large > 2*small {
		t.Errorf("a 12-triple commit allocates %.0f bytes on the large corpus, over twice the small corpus's %.0f", large, small)
	}
}
