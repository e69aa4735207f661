package disk_test

import (
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/turtle"
)

// Data dirs written while the disk tier kept distinct subject, predicate
// and object counters hold two things the format no longer has: an 'r'
// table of per-term role bitmasks (subject 1, predicate 2, object 4) and
// distinct_s, distinct_p and distinct_o in the meta record. The tests
// here build such a dir by hand, through kv, and check that the current
// code serves it and writes neither.

// addRoleKeys turns the closed data dir of a store seeded from src into
// one of that layout: a role key for every term src uses, and the three
// distinct counts in meta, committed as one batch and flushed to a
// segment the way a seed would have left them.
func addRoleKeys(t *testing.T, dir string, src *store.Reader) {
	t.Helper()
	db, err := kv.Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	raw, ok := db.Get("m")
	if !ok {
		t.Fatal("the seeded dir has no meta record")
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	roles := make([]byte, src.MaxID()+1)
	store.EachTriple(src, store.IDPattern{}, func(s, p, o store.ID) bool {
		roles[s] |= 1
		roles[p] |= 2
		roles[o] |= 4
		return true
	})
	var distinct [3]int
	b := &kv.Batch{}
	for id, mask := range roles {
		if mask == 0 {
			continue
		}
		b.Put(string(binary.BigEndian.AppendUint32([]byte{'r'}, uint32(id))), []byte{mask})
		for bit := range distinct {
			if mask&(1<<bit) != 0 {
				distinct[bit]++
			}
		}
	}
	meta["distinct_s"], meta["distinct_p"], meta["distinct_o"] = distinct[0], distinct[1], distinct[2]
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	b.Put("m", raw)
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// roleKeys counts the 'r' keys of a closed data dir.
func roleKeys(t *testing.T, dir string) int {
	t.Helper()
	db, err := kv.Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Snapshot()
	defer snap.Release()
	n := 0
	snap.Scan("r", "s", func(string, []byte) bool { n++; return true })
	return n
}

// TestRoleKeyDirStillServes: a data dir with role keys and distinct
// counts in meta reopens and answers the differential queries as the
// memory tier does; it takes an insert, a delete and a Flush; and it
// answers the same after a compaction has merged the old segments, and
// after a reopen.
func TestRoleKeyDirStillServes(t *testing.T) {
	g, err := turtle.Parse(diffFixture)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.FromGraph(g)
	dir := t.TempDir()
	ds := openT(t, dir)
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	addRoleKeys(t, dir, mem.Reader())
	if n := roleKeys(t, dir); n == 0 {
		t.Fatal("the fixture wrote no role key")
	}

	// Every Apply flushes the memtable and more than one segment starts a
	// compaction, so the write below merges the role keys' segment.
	opts := disk.Options{KV: kv.Options{MemtableBytes: 1, MaxSegments: 1}}
	ds, err = disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.Close() }()
	runDifferential(t, mem, ds, diffQueries)

	ex := func(local string) rdf.Term { return rdf.NewIRI("http://example.org/" + local) }
	added := rdf.Triple{S: ex("erin"), P: ex("knows"), O: ex("alice")}
	removed := rdf.Triple{S: ex("bob"), P: ex("knows"), O: ex("carol")}
	mem.Add(added)
	mem.Remove(removed)
	mustInsert(t, ds, added)
	if ok, err := ds.Delete(removed); err != nil || !ok {
		t.Fatalf("Delete(%v) = %v, %v", removed, ok, err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	runDifferential(t, mem, ds, diffQueries)

	for deadline := time.Now().Add(10 * time.Second); ds.KVStats().Compactions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction ran: %+v", ds.KVStats())
		}
	}
	runDifferential(t, mem, ds, diffQueries)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = disk.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	runDifferential(t, mem, ds, diffQueries)
}

// TestWritesNoRoleKeys: neither a seed nor an insert writes a role key.
func TestWritesNoRoleKeys(t *testing.T) {
	g, err := turtle.Parse(diffFixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ds := openT(t, dir)
	if err := ds.CopyFrom(store.FromGraph(g).Reader()); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, ds, rdf.Triple{S: rdf.NewIRI("http://example.org/erin"), P: rdf.NewIRI("http://example.org/knows"), O: rdf.NewIRI("http://example.org/dave")})
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if n := roleKeys(t, dir); n != 0 {
		t.Fatalf("%d role keys written", n)
	}
}
