package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
)

func TestRemoveBasic(t *testing.T) {
	s := buildSmall()
	tr := rdf.NewTriple(iri("alice"), iri("knows"), iri("bob"))
	if !s.Remove(tr) {
		t.Fatal("Remove of present triple must be true")
	}
	if s.Remove(tr) {
		t.Fatal("second Remove must be false")
	}
	if s.Has(tr) {
		t.Fatal("Has found removed triple")
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if !s.Add(tr) {
		t.Fatal("re-Add after Remove must be true")
	}
	if !s.Has(tr) {
		t.Fatal("re-added triple missing")
	}
}

func TestRemoveUnknownTerms(t *testing.T) {
	s := buildSmall()
	if s.Remove(rdf.NewTriple(iri("nobody"), iri("knows"), iri("bob"))) {
		t.Fatal("Remove with unknown term must be false")
	}
}

func TestRemoveDropsDistinctCounts(t *testing.T) {
	s := New()
	s.AddSPO(iri("a"), iri("p"), iri("x"))
	s.AddSPO(iri("a"), iri("q"), iri("y"))
	s.Remove(rdf.NewTriple(iri("a"), iri("q"), iri("y")))
	r := s.Reader()
	if got := r.DistinctSubjects(); got != 1 {
		t.Fatalf("DistinctSubjects = %d, want 1", got)
	}
	if got := r.DistinctPredicates(); got != 1 {
		t.Fatalf("DistinctPredicates = %d, want 1", got)
	}
	if got := r.DistinctObjects(); got != 1 {
		t.Fatalf("DistinctObjects = %d, want 1", got)
	}
	if got := len(s.Predicates()); got != 1 {
		t.Fatalf("Predicates = %d entries, want 1", got)
	}
}

// TestRandomizedInsertDeleteEquivalence applies a seeded random stream of
// inserts and deletes and requires the mutated store to be observationally
// identical to a store rebuilt from scratch with exactly the surviving
// triples: same triple set, same cardinalities for every pattern shape,
// same distinct counts, and internally consistent sorted index keys.
func TestRandomizedInsertDeleteEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			subs := make([]rdf.Term, 12)
			for i := range subs {
				subs[i] = iri(fmt.Sprintf("s%d", i))
			}
			preds := make([]rdf.Term, 6)
			for i := range preds {
				preds[i] = iri(fmt.Sprintf("p%d", i))
			}
			objs := make([]rdf.Term, 15)
			for i := range objs {
				if i%3 == 0 {
					objs[i] = rdf.NewLiteral(fmt.Sprintf("v%d", i))
				} else {
					objs[i] = iri(fmt.Sprintf("o%d", i))
				}
			}
			randTriple := func() rdf.Triple {
				return rdf.NewTriple(
					subs[rng.Intn(len(subs))],
					preds[rng.Intn(len(preds))],
					objs[rng.Intn(len(objs))],
				)
			}

			mutated := New()
			live := make(map[rdf.Triple]bool)
			for i := 0; i < 3000; i++ {
				tr := randTriple()
				if rng.Intn(100) < 60 {
					if mutated.Add(tr) != !live[tr] {
						t.Fatalf("op %d: Add(%v) novelty disagrees with model", i, tr)
					}
					live[tr] = true
				} else {
					if mutated.Remove(tr) != live[tr] {
						t.Fatalf("op %d: Remove(%v) presence disagrees with model", i, tr)
					}
					delete(live, tr)
				}
			}

			rebuilt := New()
			for tr := range live {
				rebuilt.Add(tr)
			}

			if mutated.Len() != rebuilt.Len() {
				t.Fatalf("Len: mutated %d, rebuilt %d", mutated.Len(), rebuilt.Len())
			}
			if got, want := sortedTriples(mutated), sortedTriples(rebuilt); !equalTriples(got, want) {
				t.Fatalf("triple sets differ: mutated %d, rebuilt %d", len(got), len(want))
			}

			mr, rr := mutated.Reader(), rebuilt.Reader()
			if mr.DistinctSubjects() != rr.DistinctSubjects() ||
				mr.DistinctPredicates() != rr.DistinctPredicates() ||
				mr.DistinctObjects() != rr.DistinctObjects() {
				t.Fatalf("distinct counts: mutated (%d,%d,%d), rebuilt (%d,%d,%d)",
					mr.DistinctSubjects(), mr.DistinctPredicates(), mr.DistinctObjects(),
					rr.DistinctSubjects(), rr.DistinctPredicates(), rr.DistinctObjects())
			}

			// Every pattern shape over sampled terms must agree with the
			// rebuilt store (Cardinality interns per-store, so this is a
			// term-level comparison).
			wild := rdf.Term{}
			for i := 0; i < 200; i++ {
				sub := subs[rng.Intn(len(subs))]
				p := preds[rng.Intn(len(preds))]
				o := objs[rng.Intn(len(objs))]
				pats := []Pattern{
					{sub, p, o}, {S: sub, P: p}, {P: p, O: o}, {S: sub, O: o},
					{S: sub}, {P: p}, {O: o}, {wild, wild, wild},
				}
				for _, pat := range pats {
					if got, want := mutated.Cardinality(pat), rebuilt.Cardinality(pat); got != want {
						t.Fatalf("Cardinality(%v): mutated %d, rebuilt %d", pat, got, want)
					}
					if got, want := mutated.Count(pat), rebuilt.Count(pat); got != want {
						t.Fatalf("Count(%v): mutated %d, rebuilt %d", pat, got, want)
					}
				}
			}

			checkGeneration(t, mutated.Reader())
		})
	}
}

func sortedTriples(s *Store) []rdf.Triple {
	ts := s.MatchAll(Pattern{})
	sort.Slice(ts, func(i, j int) bool {
		if c := ts[i].S.Compare(ts[j].S); c != 0 {
			return c < 0
		}
		if c := ts[i].P.Compare(ts[j].P); c != 0 {
			return c < 0
		}
		return ts[i].O.Compare(ts[j].O) < 0
	})
	return ts
}

func equalTriples(a, b []rdf.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkGeneration asserts what every published generation must satisfy:
// at every level keys are strictly sorted, no empty list, leaf, postings
// or chunk is retained, leaves respect leafMax and (with more than one
// key) leafIDs, pair counts equal the list lengths below them, no run a
// reader is handed can be appended to over a neighbour's IDs, the
// distinct counts equal the occupied slots, and the three permutations
// all hold exactly Len triples.
func checkGeneration(t *testing.T, r *Reader) {
	t.Helper()
	for name, ix := range map[string]*index{"spo": &r.spo, "pos": &r.pos, "osp": &r.osp} {
		total, keys := 0, 0
		for ci, c := range ix.chunks {
			if c == nil {
				continue
			}
			slots := 0
			for j, p := range &c.p {
				if p == nil {
					continue
				}
				slots++
				a := ID(ci*chunkSize + j + 1)
				if a > r.MaxID() {
					t.Fatalf("%s[%d]: key above MaxID %d", name, a, r.MaxID())
				}
				total += checkPostings(t, fmt.Sprintf("%s[%d]", name, a), p)
			}
			if slots == 0 {
				t.Fatalf("%s: empty chunk %d retained", name, ci)
			}
			if slots != c.n {
				t.Fatalf("%s: chunk %d counts %d slots, has %d", name, ci, c.n, slots)
			}
			keys += slots
		}
		if keys != ix.n {
			t.Fatalf("%s: distinct count %d, %d occupied slots", name, ix.n, keys)
		}
		if total != r.n {
			t.Fatalf("%s: %d entries, generation has %d triples", name, total, r.n)
		}
	}
}

// checkPostings checks one second-level node and returns its pair count.
func checkPostings(t *testing.T, at string, p *postings) int {
	t.Helper()
	leaves := []*postings{p}
	if p.kids != nil {
		if p.ids != nil {
			t.Fatalf("%s: a directory with IDs of its own", at)
		}
		leaves = p.kids
	}
	if len(leaves) == 0 {
		t.Fatalf("%s: empty postings retained", at)
	}
	sum, prev := 0, NoID
	for _, leaf := range leaves {
		if leaf.kids != nil {
			t.Fatalf("%s: a directory below a directory", at)
		}
		n := checkLeaf(t, at, leaf, prev)
		prev = leaf.keys()[leaf.width()-1]
		if n != leaf.pairs {
			t.Fatalf("%s: leaf counts %d pairs, holds %d", at, leaf.pairs, n)
		}
		sum += n
	}
	if sum != p.pairs {
		t.Fatalf("%s: postings count %d pairs, hold %d", at, p.pairs, sum)
	}
	return sum
}

// checkLeaf checks the packing of one leaf whose keys must all sort after
// prev, and returns the pairs it holds.
func checkLeaf(t *testing.T, at string, leaf *postings, prev ID) int {
	t.Helper()
	if len(leaf.ids) == 0 || leaf.width() == 0 {
		t.Fatalf("%s: empty leaf retained", at)
	}
	n := leaf.width()
	if n > leafMax {
		t.Fatalf("%s: leaf of %d keys, leafMax is %d", at, n, leafMax)
	}
	if n > 1 && len(leaf.ids) > leafIDs {
		t.Fatalf("%s: leaf of %d keys holds %d IDs, leafIDs is %d", at, n, len(leaf.ids), leafIDs)
	}
	if len(leaf.ids) < 3*n {
		t.Fatalf("%s: leaf of %d keys is %d IDs long, too short for one ID a list", at, n, len(leaf.ids))
	}
	pairs, end := 0, 2*n
	leaf.leafRuns(Run{}, PosO, func(rn Run) bool {
		if rn.O <= prev {
			t.Fatalf("%s: second-level keys not strictly sorted at %d", at, rn.O)
		}
		prev = rn.O
		if len(rn.IDs) == 0 {
			t.Fatalf("%s[%d]: empty third-key list retained", at, rn.O)
		}
		if cap(rn.IDs) != len(rn.IDs) {
			t.Fatalf("%s[%d]: a run of %d IDs has capacity %d, over its neighbour's", at, rn.O, len(rn.IDs), cap(rn.IDs))
		}
		if &rn.IDs[0] != &leaf.ids[end] {
			t.Fatalf("%s[%d]: the run does not start where the list before it ends", at, rn.O)
		}
		for k := 1; k < len(rn.IDs); k++ {
			if rn.IDs[k-1] >= rn.IDs[k] {
				t.Fatalf("%s[%d]: third-key list not strictly sorted", at, rn.O)
			}
		}
		if got := leaf.find(rn.O); len(got) != len(rn.IDs) || cap(got) != len(got) || &got[0] != &rn.IDs[0] {
			t.Fatalf("%s[%d]: find and the run disagree", at, rn.O)
		}
		end += len(rn.IDs)
		pairs += len(rn.IDs)
		return true
	})
	if end != len(leaf.ids) {
		t.Fatalf("%s: the lists end at %d of a %d-ID leaf", at, end, len(leaf.ids))
	}
	return pairs
}
