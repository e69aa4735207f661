package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// TestGenerationsAgainstModel drives random Add/Remove/Flush sequences
// against a naive map[rdf.Triple]bool and holds generations taken at
// random commits across every later write. Each held generation must
// still answer exactly as the model did at its commit — every pattern
// shape, every count, every posting accessor, and Lookup blind to terms
// interned later — and every commit must leave the structural invariants
// intact. A second goroutine scans the held generations while the writer
// runs, so under -race a write that touches memory a published generation
// can reach is reported as a data race even when the values happen to
// agree.
//
// The term pools are sized so that the sequence crosses every boundary of
// the layout: subjects span several chunks, pos[p] and osp[hub] outgrow a
// leaf and split (at the end and in the middle), and the sweeps empty
// lists, leaves, chunks and finally the whole store before it regrows.
func TestGenerationsAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runModel(t, seed) })
	}
}

type heldGeneration struct {
	r     *Reader
	model map[rdf.Triple]bool
	at    int
}

func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const nSubj, nPred, nObj = 3 * chunkSize, 4, 2*leafMax + 200
	term := func(kind string, i int) rdf.Term {
		if kind == "o" && i%3 == 0 {
			return rdf.NewLiteral(fmt.Sprintf("v%d", i))
		}
		return iri(fmt.Sprintf("%s%d", kind, i))
	}
	// Terms are interned on first use, so drawing from the whole pool
	// mixes fresh IDs (appended past MaxID) with mid-range ones.
	randTriple := func() rdf.Triple {
		o := rng.Intn(nObj)
		if rng.Intn(3) == 0 {
			o = rng.Intn(2) // hubs: osp[hub] gets one entry per subject
		}
		return rdf.NewTriple(term("s", rng.Intn(nSubj)), term("p", rng.Intn(nPred)), term("o", o))
	}

	s := New()
	model := map[rdf.Triple]bool{}
	var live []rdf.Triple // may hold removed triples; cleaned lazily
	var held []heldGeneration
	commits := 0

	// The concurrent scanner: everything it reads belongs to a published
	// generation, so it must never race with the writer.
	scan := make(chan *Reader, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range scan {
			n := 0
			r.MatchIDs(IDPattern{}, func(_, _, _ ID) bool { n++; return true })
			if n != r.Len() {
				t.Errorf("concurrent scan saw %d triples in a generation of %d", n, r.Len())
			}
			for p := ID(1); p <= r.MaxID(); p++ {
				m := 0
				r.MatchIDs(IDPattern{P: p}, func(_, _, _ ID) bool { m++; return true })
				if m != r.PredCount(p) {
					t.Errorf("concurrent scan: predicate %d has %d triples, PredCount %d", p, m, r.PredCount(p))
				}
				r.MatchIDs(IDPattern{O: p}, func(_, _, _ ID) bool { return true })
				if got, want := r.SortPrefix(p), rdf.SortPrefix(r.Term(p)); got != want {
					t.Errorf("concurrent scan: SortPrefix(%d) = %#x, want %#x", p, got, want)
				}
			}
		}
	}()
	defer func() {
		close(scan)
		wg.Wait()
	}()

	add := func(tr rdf.Triple) {
		if s.Add(tr) != !model[tr] {
			t.Fatalf("Add(%v) novelty disagrees with the model", tr)
		}
		if !model[tr] {
			model[tr] = true
			live = append(live, tr)
		}
	}
	remove := func(tr rdf.Triple) {
		if s.Remove(tr) != model[tr] {
			t.Fatalf("Remove(%v) presence disagrees with the model", tr)
		}
		delete(model, tr)
	}
	commit := func() {
		// No request holds the lock, so taking a Reader publishes too;
		// alternate so both paths are driven.
		if commits%2 == 0 {
			s.Flush()
		}
		r := s.Reader()
		commits++
		checkGeneration(t, r)
		if r.Len() != len(model) {
			t.Fatalf("commit %d: generation of %d triples, model has %d", commits, r.Len(), len(model))
		}
		if rng.Intn(8) == 0 || len(model) == 0 {
			h := heldGeneration{r: r, model: make(map[rdf.Triple]bool, len(model)), at: commits}
			for tr := range model {
				h.model[tr] = true
			}
			held = append(held, h)
			checkAgainstModel(t, h, s)
		}
		select {
		case scan <- r:
		default: // the scanner is busy with an older generation
		}
	}
	// sweep removes every live triple the predicate picks, committing now
	// and then, which is what empties leaves and chunks.
	sweep := func(pick func(rdf.Triple) bool) {
		var victims []rdf.Triple
		for _, tr := range live {
			if model[tr] && pick(tr) {
				victims = append(victims, tr)
			}
		}
		for i, tr := range victims {
			remove(tr)
			if i%40 == 39 {
				commit()
			}
		}
		live = slices.DeleteFunc(live, func(tr rdf.Triple) bool { return !model[tr] })
		commit()
	}
	churn := func(ops, insertPct int) {
		for i := 0; i < ops; i++ {
			if rng.Intn(100) < insertPct || len(live) == 0 {
				add(randTriple())
			} else {
				remove(live[rng.Intn(len(live))]) // sometimes already gone: Remove must say so
			}
			if rng.Intn(25) == 0 {
				commit()
			}
		}
		commit()
	}

	// A bulk load in one epoch, with deletes and mid-list inserts in it.
	churn(4000, 80)
	// Everything from here on is copy-on-write.
	churn(2000, 55)
	if r := s.Reader(); r.pos.get(r.Lookup(term("p", 0))).kids == nil || r.osp.get(r.Lookup(term("o", 0))).kids == nil {
		t.Fatal("the pools are too small: pos[p0] or osp[o0] never outgrew one leaf")
	}
	sweep(func(tr rdf.Triple) bool { return tr.O == term("o", 1) })            // a whole osp postings, leaf by leaf
	sweep(func(tr rdf.Triple) bool { return tr.P == term("p", 2) })            // a whole pos postings
	sweep(func(tr rdf.Triple) bool { return s.Lookup(tr.S) <= ID(chunkSize) }) // the first chunk of spo
	churn(1500, 50)                                                            // refill what the sweeps emptied
	sweep(func(tr rdf.Triple) bool { return true })                            // the store
	if r := s.Reader(); r.Len() != 0 || r.DistinctSubjects()+r.DistinctPredicates()+r.DistinctObjects() != 0 {
		t.Fatalf("emptied store still counts %d triples", r.Len())
	}
	churn(1500, 70)

	if len(held) < 8 {
		t.Fatalf("only %d generations were held", len(held))
	}
	for _, h := range held {
		checkGeneration(t, h.r)
		checkAgainstModel(t, h, s)
	}
}

// TestLeafIDBound drives posting lists long enough to split leaves on
// leafIDs: the lists of eight objects under one predicate grow side by
// side in one leaf, which splits into leaves of several keys and then of
// one, and keep growing, at their ends and in their middles, while
// random deletes take IDs from anywhere, the last ID of a leaf included.
// Every commit must keep the structural invariants, and generations held
// across later commits must still answer as the model did.
func TestLeafIDBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nSubj, nObj = 1500, 8
	pred := iri("p")
	randTriple := func() rdf.Triple {
		o := rng.Intn(nObj)
		if rng.Intn(2) == 0 {
			o = 0 // one list outgrows the others
		}
		return rdf.NewTriple(iri(fmt.Sprintf("s%d", rng.Intn(nSubj))), pred, iri(fmt.Sprintf("o%d", o)))
	}
	s := New()
	model := map[rdf.Triple]bool{}
	var live []rdf.Triple
	var held []heldGeneration
	for i := 0; i < 6000; i++ {
		if rng.Intn(100) < 75 || len(live) == 0 {
			tr := randTriple()
			if s.Add(tr) != !model[tr] {
				t.Fatalf("Add(%v) novelty disagrees with the model", tr)
			}
			if !model[tr] {
				model[tr] = true
				live = append(live, tr)
			}
		} else {
			k := rng.Intn(len(live))
			tr := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if !s.Remove(tr) {
				t.Fatalf("Remove(%v) found nothing", tr)
			}
			delete(model, tr)
		}
		if i%25 != 24 {
			continue
		}
		s.Flush()
		r := s.Reader()
		checkGeneration(t, r)
		if i%200 == 199 {
			h := heldGeneration{r: r, model: maps.Clone(model), at: i}
			checkAgainstModel(t, h, s)
			held = append(held, h)
		}
	}
	r := s.Reader()
	if pos := r.pos.get(r.Lookup(pred)); !hasLongLeaf(pos) || len(pos.kids) < 4 {
		t.Fatal("the lists never split a leaf on leafIDs down to a leaf of one key")
	}
	for _, h := range held {
		checkGeneration(t, h.r)
		checkAgainstModel(t, h, s)
	}
}

// TestLeafAppendKeepsTheIDBound: a published leaf of two keys that is
// exactly leafIDs long, with spare capacity, takes an ID at its very end.
// The append that needs no copy would take it over the bound, so the leaf
// is copied and split instead, and the published one is left as it was.
func TestLeafAppendKeepsTheIDBound(t *testing.T) {
	var ix index
	ix.insert(1, 1, 2, 1)
	for c := ID(1); len(ix.get(1).ids) < leafIDs; c++ {
		ix.insert(1, 1, 3, c)
	}
	p := ix.get(1)
	if p.kids != nil || p.width() != 2 || cap(p.ids) == len(p.ids) {
		t.Fatalf("the leaf to append to has %d keys, %d IDs, capacity %d", p.width(), len(p.ids), cap(p.ids))
	}
	published := slices.Clone(p.ids)
	ix.insert(2, 1, 3, leafIDs) // epoch 2: epoch 1 is published
	if !slices.Equal(p.ids, published) {
		t.Fatal("the published leaf changed")
	}
	q := ix.get(1)
	if q.kids == nil {
		t.Fatalf("the leaf took the append: %d IDs", len(q.ids))
	}
	checkPostings(t, "ix[1]", q)
}

// hasLongLeaf reports whether a directory holds a leaf of one key that is
// longer than leafIDs.
func hasLongLeaf(p *postings) bool {
	return p != nil && slices.ContainsFunc(p.kids, func(l *postings) bool { return l.width() == 1 && len(l.ids) > leafIDs })
}

// checkAgainstModel compares everything a generation can be asked with
// the model as it stood when the generation was published.
func checkAgainstModel(t *testing.T, h heldGeneration, s *Store) {
	t.Helper()
	r := h.r
	at := fmt.Sprintf("generation of commit %d", h.at)

	// Lookup: a term this generation holds resolves; one interned by a
	// later commit is unknown to it, exactly as if it had never been seen.
	for tr := range h.model {
		for _, tm := range []rdf.Term{tr.S, tr.P, tr.O} {
			if id := r.Lookup(tm); id == NoID || id > r.MaxID() || r.Term(id) != tm || r.SortPrefix(id) != rdf.SortPrefix(tm) {
				t.Fatalf("%s: Lookup(%v) = %d (MaxID %d)", at, tm, id, r.MaxID())
			}
		}
	}
	for k, tm := range s.work.terms { // the test's own goroutine is the only writer
		want := ID(k + 1)
		if want > r.MaxID() {
			want = NoID
		}
		if got := r.Lookup(tm); got != want {
			t.Fatalf("%s: Lookup(%v) = %d, want %d (MaxID %d)", at, tm, got, want, r.MaxID())
		}
	}

	// The model in ID space, in each pattern shape's enumeration order.
	type key = [3]ID
	var all []key
	for tr := range h.model {
		all = append(all, key{r.Lookup(tr.S), r.Lookup(tr.P), r.Lookup(tr.O)})
	}
	order := func(perm [3]int) func(a, b key) int {
		return func(a, b key) int {
			for _, i := range perm {
				if a[i] != b[i] {
					if a[i] < b[i] {
						return -1
					}
					return 1
				}
			}
			return 0
		}
	}
	// expect groups the model by the bound positions of a shape and sorts
	// each group in that shape's index order.
	expect := func(bound [3]bool, perm [3]int) map[IDPattern][]key {
		out := map[IDPattern][]key{}
		for _, k := range all {
			var pat IDPattern
			if bound[0] {
				pat.S = k[0]
			}
			if bound[1] {
				pat.P = k[1]
			}
			if bound[2] {
				pat.O = k[2]
			}
			out[pat] = append(out[pat], k)
		}
		for _, ks := range out {
			slices.SortFunc(ks, order(perm))
		}
		return out
	}
	spo, pos, osp := [3]int{0, 1, 2}, [3]int{1, 2, 0}, [3]int{2, 0, 1}
	shapes := []struct {
		name  string
		bound [3]bool
		perm  [3]int
	}{
		{"spo", [3]bool{true, true, true}, spo},
		{"sp?", [3]bool{true, true, false}, spo},
		{"?po", [3]bool{false, true, true}, pos},
		{"s?o", [3]bool{true, false, true}, osp},
		{"s??", [3]bool{true, false, false}, spo},
		{"?p?", [3]bool{false, true, false}, pos},
		{"??o", [3]bool{false, false, true}, osp},
		{"???", [3]bool{false, false, false}, spo},
	}
	groups := map[string]map[IDPattern][]key{}
	if n := r.CardinalityIDs(IDPattern{}); n != len(all) {
		t.Fatalf("%s: CardinalityIDs(???) = %d, model has %d", at, n, len(all))
	}
	for _, sh := range shapes {
		exp := expect(sh.bound, sh.perm)
		groups[sh.name] = exp
		for pat, want := range exp {
			var got []key
			if !r.MatchIDs(pat, func(a, b, c ID) bool { got = append(got, key{a, b, c}); return true }) {
				t.Fatalf("%s: MatchIDs(%s %v) stopped early", at, sh.name, pat)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: MatchIDs(%s %v) = %d triples %v, model has %d %v", at, sh.name, pat, len(got), head(got), len(want), head(want))
			}
			if n := r.CardinalityIDs(pat); n != len(want) {
				t.Fatalf("%s: CardinalityIDs(%s %v) = %d, model has %d", at, sh.name, pat, n, len(want))
			}
		}
	}
	// Neighbours of what the model holds are present only if the model
	// holds them too, and IDs past MaxID match nothing.
	set := make(map[key]bool, len(all))
	for _, k := range all {
		set[k] = true
	}
	for _, k := range all[:min(len(all), 200)] {
		for _, n := range []key{{k[0] + 1, k[1], k[2]}, {k[0], k[1] + 1, k[2]}, {k[0], k[1], k[2] + 1}} {
			if got := r.HasID(n[0], n[1], n[2]); got != set[n] {
				t.Fatalf("%s: HasID(%v) = %v, model %v", at, n, got, set[n])
			}
		}
		for _, pat := range []IDPattern{
			{S: k[0], P: r.MaxID() + 1}, {P: r.MaxID() + 7, O: k[2]}, {S: r.MaxID() + 300*chunkSize}, {O: r.MaxID() + 1},
		} {
			if n := r.CardinalityIDs(pat); n != 0 {
				t.Fatalf("%s: CardinalityIDs(%v) = %d over an ID the generation never issued", at, pat, n)
			}
			r.MatchIDs(pat, func(a, b, c ID) bool {
				t.Fatalf("%s: MatchIDs(%v) found (%d,%d,%d)", at, pat, a, b, c)
				return false
			})
		}
	}

	// Counts and posting accessors.
	if r.Len() != len(all) {
		t.Fatalf("%s: Len %d, model %d", at, r.Len(), len(all))
	}
	if got, want := r.DistinctSubjects(), len(groups["s??"]); got != want {
		t.Fatalf("%s: DistinctSubjects %d, model %d", at, got, want)
	}
	if got, want := r.DistinctPredicates(), len(groups["?p?"]); got != want {
		t.Fatalf("%s: DistinctPredicates %d, model %d", at, got, want)
	}
	if got, want := r.DistinctObjects(), len(groups["??o"]); got != want {
		t.Fatalf("%s: DistinctObjects %d, model %d", at, got, want)
	}
	for pat, ks := range groups["?p?"] {
		if got := r.PredCount(pat.P); got != len(ks) {
			t.Fatalf("%s: PredCount(%d) = %d, model %d", at, pat.P, got, len(ks))
		}
	}
	column := func(ks []key, i int) []ID {
		out := make([]ID, len(ks))
		for j, k := range ks {
			out[j] = k[i]
		}
		return out
	}
	for pat, ks := range groups["sp?"] {
		if got := r.Objects(pat.S, pat.P); !slices.Equal(got, column(ks, 2)) {
			t.Fatalf("%s: Objects(%d,%d) = %v, model %v", at, pat.S, pat.P, got, column(ks, 2))
		}
	}
	for pat, ks := range groups["?po"] {
		if got := r.Subjects(pat.P, pat.O); !slices.Equal(got, column(ks, 0)) {
			t.Fatalf("%s: Subjects(%d,%d) = %v, model %v", at, pat.P, pat.O, got, column(ks, 0))
		}
	}
	for pat, ks := range groups["s?o"] {
		if got := r.PredicatesBetween(pat.S, pat.O); !slices.Equal(got, column(ks, 1)) {
			t.Fatalf("%s: PredicatesBetween(%d,%d) = %v, model %v", at, pat.S, pat.O, got, column(ks, 1))
		}
	}
}

func head[T any](s []T) []T { return s[:min(len(s), 6)] }
