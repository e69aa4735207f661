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
