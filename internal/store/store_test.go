package store

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

func buildSmall() *Store {
	s := New()
	s.AddSPO(iri("alice"), iri("knows"), iri("bob"))
	s.AddSPO(iri("alice"), iri("knows"), iri("carol"))
	s.AddSPO(iri("bob"), iri("knows"), iri("carol"))
	s.AddSPO(iri("alice"), iri("name"), rdf.NewLiteral("Alice"))
	s.AddSPO(iri("alice"), rdf.NewIRI(rdf.RDFType), iri("Person"))
	s.AddSPO(iri("bob"), rdf.NewIRI(rdf.RDFType), iri("Person"))
	s.AddSPO(iri("conf"), rdf.NewIRI(rdf.RDFType), iri("Event"))
	return s
}

func TestAddDeduplicates(t *testing.T) {
	s := New()
	tr := rdf.NewTriple(iri("a"), iri("p"), iri("b"))
	if !s.Add(tr) {
		t.Fatal("first Add must be true")
	}
	if s.Add(tr) {
		t.Fatal("second Add must be false")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestHas(t *testing.T) {
	s := buildSmall()
	if !s.Has(rdf.NewTriple(iri("alice"), iri("knows"), iri("bob"))) {
		t.Fatal("Has missing existing triple")
	}
	if s.Has(rdf.NewTriple(iri("bob"), iri("knows"), iri("alice"))) {
		t.Fatal("Has found non-existing triple")
	}
}

func TestMatchShapes(t *testing.T) {
	s := buildSmall()
	cases := []struct {
		name string
		pat  Pattern
		want int
	}{
		{"SPO", Pattern{iri("alice"), iri("knows"), iri("bob")}, 1},
		{"SP?", Pattern{S: iri("alice"), P: iri("knows")}, 2},
		{"?PO", Pattern{P: iri("knows"), O: iri("carol")}, 2},
		{"S?O", Pattern{S: iri("alice"), O: iri("bob")}, 1},
		{"S??", Pattern{S: iri("alice")}, 4},
		{"?P?", Pattern{P: iri("knows")}, 3},
		{"??O", Pattern{O: iri("carol")}, 2},
		{"???", Pattern{}, 7},
		{"missing term", Pattern{S: iri("nobody")}, 0},
	}
	for _, c := range cases {
		if got := s.Count(c.pat); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
		if got := len(s.MatchAll(c.pat)); got != c.want {
			t.Errorf("%s: MatchAll = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := buildSmall()
	n := 0
	s.Match(Pattern{}, func(rdf.Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestCardinalityMatchesCount(t *testing.T) {
	s := buildSmall()
	pats := []Pattern{
		{},
		{S: iri("alice")},
		{P: iri("knows")},
		{O: iri("carol")},
		{S: iri("alice"), P: iri("knows")},
		{P: iri("knows"), O: iri("carol")},
		{S: iri("alice"), O: iri("bob")},
		{S: iri("ghost")},
	}
	for _, p := range pats {
		if c, n := s.Cardinality(p), s.Count(p); c != n {
			t.Errorf("Cardinality(%v) = %d, Count = %d", p, c, n)
		}
	}
}

func TestLookupTermRoundTrip(t *testing.T) {
	s := buildSmall()
	id := s.Lookup(iri("alice"))
	if id == NoID {
		t.Fatal("alice should be interned")
	}
	if got := s.Term(id); got != iri("alice") {
		t.Fatalf("Term(Lookup(alice)) = %v", got)
	}
	if s.Lookup(iri("ghost")) != NoID {
		t.Fatal("unknown term should be NoID")
	}
}

func TestClasses(t *testing.T) {
	s := buildSmall()
	cs := s.Classes()
	if len(cs) != 2 {
		t.Fatalf("Classes = %d, want 2", len(cs))
	}
	if cs[0].Class != iri("Person") || cs[0].Instances != 2 {
		t.Fatalf("top class = %+v", cs[0])
	}
	if cs[1].Class != iri("Event") || cs[1].Instances != 1 {
		t.Fatalf("second class = %+v", cs[1])
	}
}

func TestCountInstancesAndInstancesOf(t *testing.T) {
	s := buildSmall()
	if n := s.CountInstances(iri("Person")); n != 2 {
		t.Fatalf("CountInstances = %d", n)
	}
	var got []rdf.Term
	s.InstancesOf(iri("Person"), func(x rdf.Term) bool {
		got = append(got, x)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("InstancesOf visited %d", len(got))
	}
}

func TestPredicates(t *testing.T) {
	s := buildSmall()
	ps := s.Predicates()
	if len(ps) != 3 {
		t.Fatalf("Predicates = %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Compare(ps[i]) >= 0 {
			t.Fatal("Predicates not sorted")
		}
	}
}

func TestDistinctSubjects(t *testing.T) {
	s := buildSmall()
	if n := s.DistinctSubjects(); n != 3 {
		t.Fatalf("DistinctSubjects = %d, want 3", n)
	}
}

func TestGraphExport(t *testing.T) {
	s := buildSmall()
	g := s.Graph()
	if g.Len() != s.Len() {
		t.Fatalf("Graph export lost triples: %d vs %d", g.Len(), s.Len())
	}
}

func TestFromGraph(t *testing.T) {
	g := rdf.NewGraph()
	g.AddSPO(iri("a"), iri("p"), iri("b"))
	g.AddSPO(iri("b"), iri("p"), iri("c"))
	s := FromGraph(g)
	if s.Len() != 2 {
		t.Fatalf("FromGraph Len = %d", s.Len())
	}
}

func TestMatchDeterministic(t *testing.T) {
	s := buildSmall()
	a := fmt.Sprint(s.MatchAll(Pattern{P: iri("knows")}))
	for i := 0; i < 5; i++ {
		if b := fmt.Sprint(s.MatchAll(Pattern{P: iri("knows")})); a != b {
			t.Fatal("Match order not deterministic")
		}
	}
}

// Property: every added triple is findable via every index shape, and
// Count over a wildcard equals the number of insertions.
func TestQuickIndexConsistency(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		s := New()
		unique := make(map[[3]uint8]struct{})
		for _, r := range raw {
			tr := rdf.NewTriple(
				iri(fmt.Sprintf("s%d", r[0]%8)),
				iri(fmt.Sprintf("p%d", r[1]%4)),
				iri(fmt.Sprintf("o%d", r[2]%8)),
			)
			key := [3]uint8{r[0] % 8, r[1] % 4, r[2] % 8}
			_, dup := unique[key]
			unique[key] = struct{}{}
			if s.Add(tr) == dup {
				return false // Add's newness report must match dedup
			}
		}
		if s.Len() != len(unique) {
			return false
		}
		// every triple reachable through all bound shapes
		ok := true
		s.Match(Pattern{}, func(tr rdf.Triple) bool {
			if !s.Has(tr) {
				ok = false
				return false
			}
			if s.Count(Pattern{S: tr.S, P: tr.P, O: tr.O}) != 1 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cardinality is exact for all pattern shapes on random data.
func TestQuickCardinalityExact(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		s := New()
		for _, r := range raw {
			s.AddSPO(
				iri(fmt.Sprintf("s%d", r[0]%6)),
				iri(fmt.Sprintf("p%d", r[1]%3)),
				iri(fmt.Sprintf("o%d", r[2]%6)),
			)
		}
		pats := []Pattern{
			{},
			{S: iri("s1")},
			{P: iri("p1")},
			{O: iri("o2")},
			{S: iri("s0"), P: iri("p0")},
			{P: iri("p2"), O: iri("o1")},
			{S: iri("s3"), O: iri("o3")},
		}
		for _, p := range pats {
			if s.Cardinality(p) != s.Count(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- ID-level read API ---

func TestReaderMatchIDsAgreesWithMatch(t *testing.T) {
	s := buildSmall()
	r := s.Reader()
	pats := []Pattern{
		{},
		{S: iri("alice")},
		{P: iri("knows")},
		{O: iri("carol")},
		{S: iri("alice"), P: iri("knows")},
		{P: iri("knows"), O: iri("carol")},
		{S: iri("alice"), O: iri("bob")},
		{S: iri("alice"), P: iri("knows"), O: iri("bob")},
	}
	for _, p := range pats {
		ip := IDPattern{S: r.Lookup(p.S), P: r.Lookup(p.P), O: r.Lookup(p.O)}
		var viaIDs []rdf.Triple
		r.MatchIDs(ip, func(a, b, c ID) bool {
			viaIDs = append(viaIDs, rdf.NewTriple(r.Term(a), r.Term(b), r.Term(c)))
			return true
		})
		viaTerms := s.MatchAll(p)
		if fmt.Sprint(viaIDs) != fmt.Sprint(viaTerms) {
			t.Errorf("MatchIDs(%v) = %v, Match = %v", p, viaIDs, viaTerms)
		}
		if got, want := r.CardinalityIDs(ip), s.Count(p); got != want {
			t.Errorf("CardinalityIDs(%v) = %d, want %d", p, got, want)
		}
		if got, want := s.CardinalityIDs(ip), s.Count(p); got != want {
			t.Errorf("Store.CardinalityIDs(%v) = %d, want %d", p, got, want)
		}
	}
}

func TestReaderUnknownIDsMatchNothing(t *testing.T) {
	s := buildSmall()
	r := s.Reader()
	ghost := r.MaxID() + 100
	for _, ip := range []IDPattern{{S: ghost}, {P: ghost}, {O: ghost}, {S: ghost, P: ghost, O: ghost}} {
		n := 0
		r.MatchIDs(ip, func(ID, ID, ID) bool { n++; return true })
		if n != 0 || r.CardinalityIDs(ip) != 0 {
			t.Errorf("unknown IDs must match nothing: %v matched %d", ip, n)
		}
	}
	if r.HasID(ghost, ghost, ghost) {
		t.Error("HasID with unknown IDs must be false")
	}
}

func TestReaderHasIDAndPostings(t *testing.T) {
	s := buildSmall()
	r := s.Reader()
	alice, knows, bob := r.Lookup(iri("alice")), r.Lookup(iri("knows")), r.Lookup(iri("bob"))
	if !r.HasID(alice, knows, bob) {
		t.Fatal("HasID missed an existing triple")
	}
	if r.HasID(bob, knows, alice) {
		t.Fatal("HasID found a non-existing triple")
	}
	objs := r.Objects(alice, knows)
	if len(objs) != 2 {
		t.Fatalf("Objects = %v", objs)
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1] >= objs[i] {
			t.Fatal("Objects not sorted")
		}
	}
	carol := r.Lookup(iri("carol"))
	if subs := r.Subjects(knows, carol); len(subs) != 2 {
		t.Fatalf("Subjects = %v", subs)
	}
	if ps := r.PredicatesBetween(alice, bob); len(ps) != 1 || ps[0] != knows {
		t.Fatalf("PredicatesBetween = %v", ps)
	}
}

func TestReaderDistinctCounts(t *testing.T) {
	s := buildSmall()
	r := s.Reader()
	if r.DistinctSubjects() != 3 || r.DistinctSubjects() != s.DistinctSubjects() {
		t.Fatalf("DistinctSubjects = %d", r.DistinctSubjects())
	}
	if r.DistinctPredicates() != 3 {
		t.Fatalf("DistinctPredicates = %d", r.DistinctPredicates())
	}
	if r.PredCount(r.Lookup(iri("knows"))) != 3 {
		t.Fatal("PredCount(knows) != 3")
	}
	if r.Len() != s.Len() || int(r.MaxID()) != s.TermCount() {
		t.Fatal("Reader counters disagree with store")
	}
}

func TestMatchIDsEarlyStop(t *testing.T) {
	s := buildSmall()
	r := s.Reader()
	n := 0
	done := r.MatchIDs(IDPattern{}, func(ID, ID, ID) bool { n++; return n < 2 })
	if done || n != 2 {
		t.Fatalf("early stop: done=%v n=%d", done, n)
	}
}

// Property: MatchIDs over random data agrees with term-level Match for
// every pattern shape, and iteration is deterministic sorted-key order.
func TestQuickMatchIDsConsistency(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		s := New()
		for _, x := range raw {
			s.AddSPO(
				iri(fmt.Sprintf("s%d", x[0]%6)),
				iri(fmt.Sprintf("p%d", x[1]%3)),
				iri(fmt.Sprintf("o%d", x[2]%6)),
			)
		}
		r := s.Reader()
		pats := []Pattern{
			{}, {S: iri("s1")}, {P: iri("p1")}, {O: iri("o2")},
			{S: iri("s0"), P: iri("p0")}, {P: iri("p2"), O: iri("o1")}, {S: iri("s3"), O: iri("o3")},
		}
		for _, p := range pats {
			ip := IDPattern{S: r.Lookup(p.S), P: r.Lookup(p.P), O: r.Lookup(p.O)}
			if (p.S.IsZero() || ip.S != NoID) && (p.P.IsZero() || ip.P != NoID) && (p.O.IsZero() || ip.O != NoID) {
				var got []rdf.Triple
				r.MatchIDs(ip, func(a, b, c ID) bool {
					got = append(got, rdf.NewTriple(r.Term(a), r.Term(b), r.Term(c)))
					return true
				})
				if fmt.Sprint(got) != fmt.Sprint(s.MatchAll(p)) {
					return false
				}
				if r.CardinalityIDs(ip) != s.Count(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDictionaryAgainstMap checks the open-addressing dictionary against
// a builtin map over terms that differ only in kind, datatype or language
// tag, empty values and blank nodes, enough of them to grow the table
// from 16 slots to 2^14. Every intern and every Lookup must agree with
// the map. A generation held from before the growths is read from a
// second goroutine while the writer interns: it must find exactly its own
// terms, and NoID for every later one.
func TestDictionaryAgainstMap(t *testing.T) {
	const dt = "http://www.w3.org/2001/XMLSchema#integer"
	var terms []rdf.Term
	for _, v := range []string{"", "x", "7"} {
		terms = append(terms, rdf.NewIRI(v), rdf.NewLiteral(v), rdf.NewBlank(v),
			rdf.NewTypedLiteral(v, dt), rdf.NewTypedLiteral(v, "http://ex/dt"),
			rdf.NewLangLiteral(v, "en"), rdf.NewLangLiteral(v, "fr"),
			rdf.Term{Kind: rdf.KindLiteral, Value: v, Datatype: dt, Lang: "en"})
	}
	for i := 0; len(terms) < 6000; i++ {
		v := fmt.Sprint(i)
		terms = append(terms, rdf.NewIRI("http://ex/"+v), rdf.NewLiteral(v), rdf.NewBlank("b"+v),
			rdf.NewTypedLiteral(v, dt), rdf.NewLangLiteral(v, "en"))
	}
	absent := []rdf.Term{rdf.NewIRI("http://ex/absent"), rdf.NewLiteral("absent"), rdf.NewBlank("absent"),
		rdf.NewLangLiteral("x", "de"), rdf.NewTypedLiteral("x", "http://ex/other")}

	s := New()
	model := map[rdf.Term]ID{}
	// intern runs the writer's side of Add for one batch, then publishes.
	intern := func(batch []rdf.Term) {
		s.mu.Lock()
		for _, tm := range batch {
			id := s.intern(tm)
			want, ok := model[tm]
			if !ok {
				want = ID(len(model) + 1)
				model[tm] = want
			}
			if id != want {
				t.Fatalf("intern(%v) = %d, the map says %d", tm, id, want)
			}
		}
		s.dirty.Store(true)
		s.mu.Unlock()
		s.Flush()
	}
	check := func(r *Reader) {
		t.Helper()
		for tm, id := range model {
			if id > r.MaxID() {
				id = NoID
			}
			if got := r.Lookup(tm); got != id {
				t.Fatalf("Lookup(%v) = %d, want %d (MaxID %d)", tm, got, id, r.MaxID())
			}
		}
		for _, tm := range absent {
			if got := r.Lookup(tm); got != NoID {
				t.Fatalf("Lookup(%v) = %d for a term never interned", tm, got)
			}
		}
	}

	intern(terms[:40])
	intern(terms[:40]) // every one already known
	held := s.Reader()
	heldModel := maps.Clone(model)
	slots := len(s.dict.slots)
	check(held)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, tm := range terms {
				if got, want := held.Lookup(tm), heldModel[tm]; got != want {
					t.Errorf("held generation: Lookup(%v) = %d, want %d", tm, got, want)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 40; i < len(terms); i += 97 {
		intern(terms[i:min(i+97, len(terms))])
		intern(terms[i/2 : i/2+3]) // duplicates, interleaved
	}
	close(done)
	wg.Wait()
	if len(s.dict.slots) < 64*slots {
		t.Fatalf("the table grew from %d to only %d slots", slots, len(s.dict.slots))
	}
	check(held)
	check(s.Reader())
	if n := testing.AllocsPerRun(100, func() { s.Reader().Lookup(terms[len(terms)/2]) }); n != 0 {
		t.Fatalf("a Lookup allocates %.1f times", n)
	}
}
