package store

import (
	"fmt"
	"maps"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/rdf"
)

// builtCorpus returns triples, duplicates included, that cross every
// boundary of the layout once built: subjects span several chunks,
// pos[p0] holds more than leafMax keys, spo[hub] one list longer than
// leafIDs, osp[o0] lists that fill several leaves of several keys, and
// spo[wide] lists of 101 IDs, four of which fill a leaf to 412 IDs and a
// fifth would take to 515, three past leafIDs.
func builtCorpus(rng *rand.Rand) []rdf.Triple {
	var ts []rdf.Triple
	hub := iri("hub")
	for i := 0; i < leafIDs+90; i++ {
		ts = append(ts, rdf.NewTriple(hub, iri("p0"), rdf.NewLiteral(fmt.Sprintf("v%d", i))))
	}
	for p := 0; p < 9; p++ {
		for i := 0; i < 101; i++ {
			ts = append(ts, rdf.NewTriple(iri("wide"), iri(fmt.Sprintf("w%d", p)), rdf.NewLiteral(fmt.Sprintf("w%d", i))))
		}
	}
	for i := 0; i < 3*chunkSize; i++ {
		s := iri(fmt.Sprintf("s%d", i))
		ts = append(ts, rdf.NewTriple(s, iri("p0"), iri(fmt.Sprintf("o%d", i%(2*leafMax+7)))))
		for k := 0; k < 1+rng.Intn(3); k++ {
			ts = append(ts, rdf.NewTriple(s, iri(fmt.Sprintf("p%d", 1+rng.Intn(3))), iri(fmt.Sprintf("o%d", rng.Intn(8)))))
		}
	}
	for i := 0; i < 400; i++ { // duplicates, of the hub list too
		ts = append(ts, ts[rng.Intn(len(ts))])
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// TestBuiltStoreAgainstModel: a built store is one generation that keeps
// every structural invariant with no spare capacity anywhere, answers
// exactly as the model does, and takes writes copy-on-write afterwards —
// the build's generation, held across the churn, still answers as it did.
func TestBuiltStoreAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	b := NewBuilder()
	model := map[rdf.Triple]bool{}
	var live []rdf.Triple
	for _, tr := range builtCorpus(rng) {
		b.Add(tr)
		if !model[tr] {
			model[tr] = true
			live = append(live, tr)
		}
	}
	s := b.Store()
	built := heldGeneration{r: s.Reader(), model: maps.Clone(model)}
	checkGeneration(t, built.r)
	checkPacked(t, built.r)
	checkAgainstModel(t, built, s)
	if l := built.r.spo.get(built.r.Lookup(iri("hub"))); l.kids != nil || l.width() != 1 || len(l.ids) <= leafIDs {
		t.Fatal("spo[hub] is not a one-key leaf over leafIDs")
	}
	if built.r.pos.get(built.r.Lookup(iri("p0"))).kids == nil {
		t.Fatal("pos[p0] fits one leaf: the corpus is too small")
	}

	for i := 0; i < 3000; i++ {
		if tr := live[rng.Intn(len(live))]; rng.Intn(2) == 0 && model[tr] {
			if !s.Remove(tr) {
				t.Fatalf("Remove(%v) of a present triple", tr)
			}
			delete(model, tr)
		} else {
			tr := rdf.NewTriple(iri(fmt.Sprintf("s%d", rng.Intn(3*chunkSize+20))), iri(fmt.Sprintf("p%d", rng.Intn(4))), iri(fmt.Sprintf("o%d", rng.Intn(300))))
			if rng.Intn(4) == 0 {
				tr = rdf.NewTriple(iri("hub"), iri("p0"), rdf.NewLiteral(fmt.Sprintf("v%d", rng.Intn(2*leafIDs))))
			}
			if s.Add(tr) != !model[tr] {
				t.Fatalf("Add(%v) novelty disagrees with the model", tr)
			}
			if !model[tr] {
				model[tr] = true
				live = append(live, tr)
			}
		}
		if i%500 == 499 {
			s.Flush()
			checkGeneration(t, s.Reader())
		}
	}
	checkAgainstModel(t, heldGeneration{r: s.Reader(), model: model, at: 1}, s)
	checkGeneration(t, built.r)
	checkAgainstModel(t, built, s)
}

// checkPacked asserts that nothing a generation holds has room to grow:
// every leaf's ids, every directory's kids and every chunk directory are
// exactly as long as their capacity.
func checkPacked(t *testing.T, r *Reader) {
	t.Helper()
	for name, ix := range map[string]*index{"spo": &r.spo, "pos": &r.pos, "osp": &r.osp} {
		if cap(ix.chunks) != len(ix.chunks) {
			t.Fatalf("%s: chunk directory of %d has capacity %d", name, len(ix.chunks), cap(ix.chunks))
		}
		ix.each(func(a ID, p *postings) bool {
			leaves := []*postings{p}
			if p.kids != nil {
				if cap(p.kids) != len(p.kids) {
					t.Fatalf("%s[%d]: directory of %d leaves has capacity %d", name, a, len(p.kids), cap(p.kids))
				}
				leaves = p.kids
			}
			for _, leaf := range leaves {
				if cap(leaf.ids) != len(leaf.ids) {
					t.Fatalf("%s[%d]: leaf of %d IDs has capacity %d", name, a, len(leaf.ids), cap(leaf.ids))
				}
			}
			return true
		})
	}
}

// TestBuildSortsSixTimes: SPO takes a sort on each component; POS and
// OSP start from SPO's order, so POS takes two more (o, then p) and OSP
// one (o). Sorting OSP from POS's order, as the build once did, took
// seven.
func TestBuildSortsSixTimes(t *testing.T) {
	b := NewBuilder()
	for _, tr := range builtCorpus(rand.New(rand.NewSource(43))) {
		b.Add(tr)
	}
	var n atomic.Int64
	sortHook = func() { n.Add(1) }
	s := b.Store()
	sortHook = nil
	if n.Load() != 6 {
		t.Errorf("a build made %d component sorts; want 6", n.Load())
	}
	checkPacked(t, s.Reader())
}

// The empty build is an empty store that takes writes.
func TestBuildNothing(t *testing.T) {
	s := NewBuilder().Store()
	if r := s.Reader(); r.Len() != 0 || r.MaxID() != 0 {
		t.Fatalf("empty build: %d triples, MaxID %d", r.Len(), r.MaxID())
	}
	if !s.Add(rdf.NewTriple(iri("a"), iri("b"), iri("c"))) || s.Len() != 1 {
		t.Fatal("an empty built store refuses a write")
	}
	checkGeneration(t, s.Reader())
}
