package disk_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

func openT(t *testing.T, dir string) *disk.Store {
	t.Helper()
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustInsert(t *testing.T, ds *disk.Store, tr rdf.Triple) bool {
	t.Helper()
	fresh, err := ds.Insert(tr)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

func triple(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }

// fixtureTriples exercises every dictionary path: plain IRIs, blank
// nodes, plain/lang/typed literals, and a term long enough to go
// through the hashed dictionary table.
func fixtureTriples() []rdf.Triple {
	longIRI := rdf.NewIRI("http://example.org/very/long/" + strings.Repeat("segment/", 12) + "leaf")
	a := rdf.NewIRI("http://example.org/a")
	b := rdf.NewIRI("http://example.org/b")
	knows := rdf.NewIRI("http://example.org/knows")
	name := rdf.NewIRI("http://example.org/name")
	age := rdf.NewIRI("http://example.org/age")
	return []rdf.Triple{
		triple(a, knows, b),
		triple(b, knows, a),
		triple(a, name, rdf.NewLangLiteral("Ada", "en")),
		triple(a, name, rdf.NewLiteral("Ada")),
		triple(b, age, rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")),
		triple(rdf.NewBlank("x"), knows, a),
		triple(longIRI, knows, a),
		triple(a, knows, longIRI),
	}
}

func TestInsertFlushReopen(t *testing.T) {
	dir := t.TempDir()
	ds := openT(t, dir)
	trs := fixtureTriples()
	for _, tr := range trs {
		if !mustInsert(t, ds, tr) {
			t.Fatalf("fresh triple reported as duplicate: %v", tr)
		}
	}
	for _, tr := range trs {
		if mustInsert(t, ds, tr) {
			t.Fatalf("duplicate triple reported as fresh: %v", tr)
		}
	}
	if ds.Len() != len(trs) {
		t.Fatalf("Len = %d, want %d", ds.Len(), len(trs))
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds = openT(t, dir)
	defer ds.Close()
	if ds.Len() != len(trs) {
		t.Fatalf("reopened Len = %d, want %d", ds.Len(), len(trs))
	}
	for _, tr := range trs {
		if mustInsert(t, ds, tr) {
			t.Fatalf("triple not persisted across reopen: %v", tr)
		}
	}
	got := map[string]bool{}
	ds.Match(store.Pattern{}, func(tr rdf.Triple) bool {
		got[tr.S.String()+" "+tr.P.String()+" "+tr.O.String()] = true
		return true
	})
	if len(got) != len(trs) {
		t.Fatalf("full scan yields %d triples, want %d", len(got), len(trs))
	}
	for _, tr := range trs {
		if !got[tr.S.String()+" "+tr.P.String()+" "+tr.O.String()] {
			t.Fatalf("triple missing from scan after reopen: %v", tr)
		}
	}
}

// TestWriteThenRead pins the memory-tier semantics on the write path: an
// Insert is visible to the very next read without an explicit Flush.
func TestWriteThenRead(t *testing.T) {
	ds := openT(t, t.TempDir())
	defer ds.Close()
	tr := fixtureTriples()[0]
	mustInsert(t, ds, tr)
	if n := ds.Cardinality(store.Pattern{}); n != 1 {
		t.Fatalf("Cardinality after unflushed insert = %d, want 1", n)
	}
	seen := false
	ds.Match(store.Pattern{S: tr.S}, func(got rdf.Triple) bool {
		seen = got == tr
		return true
	})
	if !seen {
		t.Fatal("unflushed insert not visible to Match")
	}
}

// TestReaderEquivalence replicates a synthetic corpus into the disk tier
// with CopyFrom (which preserves ID assignment) and checks the entire
// ReaderAPI surface — counters, dictionary, and the exact MatchIDs
// sequence of all eight pattern shapes — against the in-memory Reader.
func TestReaderEquivalence(t *testing.T) {
	mem := synth.Generate(synth.Spec{
		Name: "eq", Classes: 5, Instances: 150, ObjectProps: 8,
		DataProps: 5, LinkFactor: 2, CommunitySeeds: 2, Seed: 42,
	})
	ds := openT(t, t.TempDir())
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}

	mr := mem.Reader()
	dr := ds.Snapshot()
	if dr.MaxID() != mr.MaxID() || dr.Len() != mr.Len() {
		t.Fatalf("MaxID/Len: disk (%d, %d) vs mem (%d, %d)", dr.MaxID(), dr.Len(), mr.MaxID(), mr.Len())
	}
	if dr.DistinctSubjects() != mr.DistinctSubjects() ||
		dr.DistinctPredicates() != mr.DistinctPredicates() ||
		dr.DistinctObjects() != mr.DistinctObjects() {
		t.Fatalf("distinct counters: disk (%d, %d, %d) vs mem (%d, %d, %d)",
			dr.DistinctSubjects(), dr.DistinctPredicates(), dr.DistinctObjects(),
			mr.DistinctSubjects(), mr.DistinctPredicates(), mr.DistinctObjects())
	}

	// Dictionary round-trip for every issued ID, both directions.
	for id := store.ID(1); id <= mr.MaxID(); id++ {
		wantTerm := mr.Term(id)
		if got := dr.Term(id); got != wantTerm {
			t.Fatalf("Term(%d): disk %v vs mem %v", id, got, wantTerm)
		}
		if got := dr.Lookup(wantTerm); got != id {
			t.Fatalf("Lookup(%v): disk %d, want %d", wantTerm, got, id)
		}
		if dr.PredCount(id) != mr.PredCount(id) {
			t.Fatalf("PredCount(%d): disk %d vs mem %d", id, dr.PredCount(id), mr.PredCount(id))
		}
	}
	if got := dr.Lookup(rdf.NewIRI("http://example.org/definitely-absent")); got != store.NoID {
		t.Fatalf("Lookup(absent) = %d, want NoID", got)
	}

	// Exact MatchIDs sequences and cardinalities for all eight shapes,
	// over every triple in the corpus plus a miss per shape.
	seq := func(r store.ReaderAPI, pat store.IDPattern) [][3]store.ID {
		var out [][3]store.ID
		r.MatchIDs(pat, func(s, p, o store.ID) bool {
			out = append(out, [3]store.ID{s, p, o})
			return true
		})
		return out
	}
	check := func(pat store.IDPattern) {
		ms, dsq := seq(mr, pat), seq(dr, pat)
		if len(ms) != len(dsq) {
			t.Fatalf("MatchIDs(%+v): disk yields %d rows, mem %d", pat, len(dsq), len(ms))
		}
		for i := range ms {
			if ms[i] != dsq[i] {
				t.Fatalf("MatchIDs(%+v) row %d: disk %v vs mem %v", pat, i, dsq[i], ms[i])
			}
		}
		if mc, dc := mr.CardinalityIDs(pat), dr.CardinalityIDs(pat); mc != dc {
			t.Fatalf("CardinalityIDs(%+v): disk %d vs mem %d", pat, dc, mc)
		}
	}
	no := store.NoID
	check(store.IDPattern{S: no, P: no, O: no})
	var triples [][3]store.ID
	mr.MatchIDs(store.IDPattern{S: no, P: no, O: no}, func(s, p, o store.ID) bool {
		triples = append(triples, [3]store.ID{s, p, o})
		return true
	})
	for i, tr := range triples {
		s, p, o := tr[0], tr[1], tr[2]
		check(store.IDPattern{S: s, P: no, O: no})
		check(store.IDPattern{S: no, P: p, O: no})
		check(store.IDPattern{S: no, P: no, O: o})
		check(store.IDPattern{S: s, P: p, O: no})
		check(store.IDPattern{S: no, P: p, O: o})
		check(store.IDPattern{S: s, P: no, O: o})
		check(store.IDPattern{S: s, P: p, O: o})
		if !dr.HasID(s, p, o) {
			t.Fatalf("HasID(%v) = false for present triple", tr)
		}
		if i > 400 { // the full cross-product is quadratic; this is plenty
			break
		}
	}
	// Point-lookup helpers against the memory tier on a sample.
	for i, tr := range triples {
		s, p, o := tr[0], tr[1], tr[2]
		if got, want := dr.Objects(s, p), mr.Objects(s, p); !idSliceEq(got, want) {
			t.Fatalf("Objects(%d, %d): disk %v vs mem %v", s, p, got, want)
		}
		if got, want := dr.Subjects(p, o), mr.Subjects(p, o); !idSliceEq(got, want) {
			t.Fatalf("Subjects(%d, %d): disk %v vs mem %v", p, o, got, want)
		}
		if got, want := dr.PredicatesBetween(s, o), mr.PredicatesBetween(s, o); !idSliceEq(got, want) {
			t.Fatalf("PredicatesBetween(%d, %d): disk %v vs mem %v", s, o, got, want)
		}
		if i > 200 {
			break
		}
	}
	// Misses behave identically too.
	miss := mr.MaxID() + 1
	check(store.IDPattern{S: miss, P: no, O: no})
	check(store.IDPattern{S: no, P: miss, O: no})
	check(store.IDPattern{S: no, P: no, O: miss})
	if dr.HasID(miss, miss, miss) {
		t.Fatal("HasID true for absent triple")
	}
}

// TestMatchIDsEarlyStop checks the run-to-completion contract: a callback
// returning false stops the scan and MatchIDs reports false.
func TestMatchIDsEarlyStop(t *testing.T) {
	ds := openT(t, t.TempDir())
	defer ds.Close()
	for _, tr := range fixtureTriples() {
		mustInsert(t, ds, tr)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ds.Snapshot()
	n := 0
	done := r.MatchIDs(store.IDPattern{}, func(_, _, _ store.ID) bool {
		n++
		return n < 3
	})
	if done || n != 3 {
		t.Fatalf("early stop: done=%v n=%d, want false/3", done, n)
	}
}

// TestCopyFromRequiresEmpty pins the precondition that keeps ID
// preservation sound.
func TestCopyFromRequiresEmpty(t *testing.T) {
	mem := store.New()
	mem.Add(fixtureTriples()[0])
	ds := openT(t, t.TempDir())
	defer ds.Close()
	mustInsert(t, ds, fixtureTriples()[1])
	if err := ds.CopyFrom(mem.Reader()); err == nil {
		t.Fatal("CopyFrom on a non-empty store did not fail")
	}
}

func idSliceEq(a, b []store.ID) bool {
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

// TestManyBatches drives enough distinct triples through small KV
// settings to force memtable flushes and compactions underneath the
// store, then verifies a reopen still serves the full corpus.
func TestManyBatches(t *testing.T) {
	dir := t.TempDir()
	opts := disk.Options{}
	opts.KV.MemtableBytes = 1 << 12
	opts.KV.MaxSegments = 3
	opts.KV.NoSync = true
	ds, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := rdf.NewIRI("http://example.org/p")
	const n = 2000
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://example.org/s/%04d", i))
		o := rdf.NewLiteral(fmt.Sprintf("v%04d", i))
		mustInsert(t, ds, triple(s, p, o))
		if i%137 == 0 {
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := ds.KVStats(); st.Flushes == 0 {
		t.Fatalf("expected memtable flushes under small settings, stats: %+v", st)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if ds2.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", ds2.Len(), n)
	}
	if got := ds2.Cardinality(store.Pattern{P: p}); got != n {
		t.Fatalf("Cardinality(p) = %d, want %d", got, n)
	}
	if st := ds2.KVStats(); st.Segments == 0 {
		t.Fatalf("expected persisted segments after reopen, stats: %+v", st)
	}
}
