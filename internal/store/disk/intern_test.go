package disk

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TestNewLongTermReadsItsKeyOnce: interning a term the seeded store has
// never seen reads its dictionary key once, through the memtable and the
// segment, whether the key is the encoding itself or, over inlineMax, its
// hash: lookupEnc hands the interning the hash key's list it read.
func TestNewLongTermReadsItsKeyOnce(t *testing.T) {
	mem := store.New()
	for i := 0; i < 200; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		mem.AddSPO(s, rdf.NewIRI("http://ex/label"), rdf.NewLiteral(fmt.Sprintf("label %d %s", i, strings.Repeat("·", 40))))
		mem.AddSPO(s, rdf.NewIRI("http://ex/n"), rdf.NewInteger(int64(i)))
	}
	ds, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	reads := func(term rdf.Term) uint64 {
		st := ds.KVStats()
		before := st.BlockCacheHits + st.BlockCacheMisses
		ds.mu.Lock()
		_, err := ds.internLocked(term)
		ds.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		st = ds.KVStats()
		return st.BlockCacheHits + st.BlockCacheMisses - before
	}
	for _, c := range []struct {
		name string
		term rdf.Term
	}{
		{"short", rdf.NewLiteral("a new short literal")},
		{"long", rdf.NewLiteral("a new long literal " + strings.Repeat("x", 500))},
	} {
		if _, hashed := dictKey(encodeTerm(c.term)); hashed != (c.name == "long") {
			t.Fatalf("%s term: hashed = %v", c.name, hashed)
		}
		if got := reads(c.term); got != 1 {
			t.Errorf("interning a new %s term read %d blocks; want its dictionary key's one", c.name, got)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := ds.snapshotReader()
	defer rd.Release()
	if id := rd.Lookup(rdf.NewLiteral("a new long literal " + strings.Repeat("x", 500))); id == store.NoID {
		t.Fatal("the long term is not in the dictionary after Flush")
	}
}

// TestFreshTriplesReadOnlyTheirTerms: a bulk insert of fresh subjects,
// the benchmark's writer shape, reads each of its terms' dictionary keys
// once and nothing else. A triple that holds an ID the pending batch
// minted cannot be under a committed key, so its existence is not read:
// that was one Get a triple. A new term over inlineMax is hashed once,
// where finding its key, staging it and filing its ID hashed it three
// times. Once committed, the same triples are read and found.
func TestFreshTriplesReadOnlyTheirTerms(t *testing.T) {
	mem := store.New()
	for i := 0; i < 200; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		mem.AddSPO(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://ex/C"))
		mem.AddSPO(s, rdf.NewIRI("http://ex/label"), rdf.NewLiteral(fmt.Sprintf("label %d", i)))
	}
	ds, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	var batch []rdf.Triple
	terms := map[rdf.Term]bool{}
	for i := 0; i < 400; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/w/s%d", i))
		batch = append(batch, rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://ex/C")))
		for v := 0; v < 4; v++ {
			batch = append(batch, rdf.NewTriple(s, rdf.NewIRI("http://ex/label"),
				rdf.NewLiteral(fmt.Sprintf("~w-s%d-%d%s", i, v, strings.Repeat(" lorem ipsum", 40)))))
		}
	}
	hashedNew := 0
	for _, tr := range batch {
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			if !terms[term] && term.IsLiteral() {
				hashedNew++
			}
			terms[term] = true
		}
	}
	gets0 := ds.KVStats().Gets
	hashes := 0
	hashHook = func() { hashes++ }
	for _, tr := range batch {
		if ok, err := ds.Insert(tr); !ok || err != nil {
			t.Fatalf("Insert(%v) = %v, %v", tr, ok, err)
		}
	}
	hashHook = nil
	gets := ds.KVStats().Gets - gets0
	t.Logf("%d fresh triples, %d terms (%d new and hashed): %d kv reads, %.2f a triple; %d FNV passes",
		len(batch), len(terms), hashedNew, gets, float64(gets)/float64(len(batch)), hashes)
	if gets != uint64(len(terms)) {
		t.Errorf("the insert made %d kv reads; want one per term, %d", gets, len(terms))
	}
	if hashes != hashedNew {
		t.Errorf("%d FNV passes for %d new hashed terms; want one each", hashes, hashedNew)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range batch[:10] {
		if ok, err := ds.Insert(tr); ok || err != nil {
			t.Fatalf("committed %v inserted again: %v, %v", tr, ok, err)
		}
	}
}
