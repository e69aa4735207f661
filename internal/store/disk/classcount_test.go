package disk_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

var rdfType = rdf.NewIRI(rdf.RDFType)

// classesOf returns the objects of mem's rdf:type triples, in ID order.
func classesOf(mem *store.Store) []rdf.Term {
	r := mem.Reader()
	var out []rdf.Term
	r.Runs(store.IDPattern{P: r.Lookup(rdfType)}, func(rn store.Run) bool {
		for _, c := range rn.Keys {
			out = append(out, r.Term(c))
		}
		return true
	})
	return out
}

// checkClassCounts checks that, for every class, the disk tier's
// CardinalityIDs{rdf:type, C} equals the memory tier's count (0 for a
// class with no instance left), and that the disk tier answers all of
// them from its commit record: kv Seeks and block-cache hits and misses
// do not move while it counts. It returns the largest count.
func checkClassCounts(t *testing.T, at string, mem *store.Store, ds *disk.Store, classes []rdf.Term) int {
	t.Helper()
	mr := mem.Reader()
	dr := ds.Snapshot().(*disk.Reader)
	defer dr.Release()
	// Every term is resolved before the counting starts: a lookup reads
	// the dictionary.
	mt, dt := mr.Lookup(rdfType), dr.Lookup(rdfType)
	ids := make([]store.ID, len(classes))
	for i, c := range classes {
		ids[i] = dr.Lookup(c)
	}
	got := make([]int, len(classes))
	before := ds.KVStats()
	for i, id := range ids {
		if id != store.NoID {
			got[i] = dr.CardinalityIDs(store.IDPattern{P: dt, O: id})
		}
	}
	after := ds.KVStats()
	largest := 0
	for i, c := range classes {
		want := 0
		if id := mr.Lookup(c); id != store.NoID {
			want = mr.CardinalityIDs(store.IDPattern{P: mt, O: id})
		}
		if got[i] != want {
			t.Fatalf("%s: %s has %d instances on disk, %d in memory", at, c, got[i], want)
		}
		largest = max(largest, want)
	}
	if after.Seeks != before.Seeks || after.BlockCacheHits != before.BlockCacheHits || after.BlockCacheMisses != before.BlockCacheMisses {
		t.Fatalf("%s: counting %d classes took %d seeks, %d block-cache hits and %d misses; want none", at, len(classes),
			after.Seeks-before.Seeks, after.BlockCacheHits-before.BlockCacheHits, after.BlockCacheMisses-before.BlockCacheMisses)
	}
	return largest
}

// apply makes one change to both tiers and commits it on disk.
func apply(t *testing.T, mem *store.Store, ds *disk.Store, dels, ins []rdf.Triple) {
	t.Helper()
	for _, tr := range dels {
		mem.Remove(tr)
		if ok, err := ds.Delete(tr); err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", tr, ok, err)
		}
	}
	for _, tr := range ins {
		mem.Add(tr)
		if _, err := ds.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
}

// instances returns the subjects typed c in mem.
func instances(mem *store.Store, c rdf.Term) []rdf.Term {
	r := mem.Reader()
	var out []rdf.Term
	store.EachTriple(r, store.IDPattern{P: r.Lookup(rdfType), O: r.Lookup(c)}, func(s, _, _ store.ID) bool {
		out = append(out, r.Term(s))
		return true
	})
	return out
}

// TestClassCountsCostNoReads: on the bench corpus the disk tier counts
// every class's rdf:type triples without reading a key, and the counts
// equal the memory tier's after a seed, an insert batch (new instances
// of a class, a new class), a delete batch (a class's every instance,
// and a retype) with its flush, the compaction that batch sets off, and
// a reopen.
func TestClassCountsCostNoReads(t *testing.T) {
	mem := synth.Generate(synth.DefaultSpec("bench", 1))
	classes := classesOf(mem)
	if len(classes) < 2 {
		t.Fatalf("the corpus has %d classes", len(classes))
	}
	dir := t.TempDir()
	// Every Apply flushes the memtable to a segment, and a third segment
	// starts a compaction: the seed is one, the insert batch makes two,
	// the delete batch three.
	opts := disk.Options{KV: kv.Options{MemtableBytes: 1, MaxSegments: 2}}
	ds, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.Close() }()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	largest := checkClassCounts(t, "seed", mem, ds, classes)
	t.Logf("%d classes, the largest of %d instances", len(classes), largest)

	res := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://bench.example.org/res/added%d", i)) }
	added := rdf.NewIRI("http://bench.example.org/onto#Added")
	var ins []rdf.Triple
	for i := 0; i < 40; i++ {
		class := classes[0]
		if i%2 == 1 {
			class = added
		}
		ins = append(ins, rdf.Triple{S: res(i), P: rdfType, O: class})
	}
	classes = append(classes, added)
	apply(t, mem, ds, nil, ins)
	checkClassCounts(t, "insert", mem, ds, classes)

	// The last class loses every instance; the first ten of the one
	// before it are retyped to the first class.
	var dels []rdf.Triple
	ins = nil
	gone, retyped := classes[len(classes)-2], classes[len(classes)-3]
	for _, s := range instances(mem, gone) {
		dels = append(dels, rdf.Triple{S: s, P: rdfType, O: gone})
	}
	for _, s := range instances(mem, retyped)[:10] {
		dels = append(dels, rdf.Triple{S: s, P: rdfType, O: retyped})
		ins = append(ins, rdf.Triple{S: s, P: rdfType, O: classes[0]})
	}
	apply(t, mem, ds, dels, ins)
	if n := len(instances(mem, gone)); n != 0 {
		t.Fatalf("%s keeps %d instances", gone, n)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := ds.KVStats(); st.Compactions > 0 && st.Segments == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction ran: %+v", ds.KVStats())
		}
	}
	checkClassCounts(t, "delete and compaction", mem, ds, classes)

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = disk.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	checkClassCounts(t, "reopen", mem, ds, classes)
}

// dropClassCounts turns the closed data dir of a seeded store into one
// written before the class counts were kept: its meta record loses
// type_id and class_count, in one batch flushed to a segment.
func dropClassCounts(t *testing.T, dir string) {
	t.Helper()
	db, err := kv.Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	meta := metaRecord(t, db)
	if _, ok := meta["class_count"]; !ok {
		t.Fatal("the seed wrote no class counts")
	}
	delete(meta, "class_count")
	delete(meta, "type_id")
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	b := &kv.Batch{}
	b.Put("m", raw)
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// metaRecord decodes the committed meta record of an open kv.DB.
func metaRecord(t *testing.T, db *kv.DB) map[string]any {
	t.Helper()
	raw, ok := db.Get("m")
	if !ok {
		t.Fatal("no meta record")
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestClassCountlessDirStillServes: a data dir whose meta record has no
// class counts reopens and answers the typed, join and class-walk shapes
// as the memory tier does, counting each class from its key range; it
// takes an insert, a delete and a Flush, after which its commit record
// carries class counts equal to the memory tier's, read without a key.
func TestClassCountlessDirStillServes(t *testing.T) {
	mem := synth.Generate(synth.Spec{
		Name: "counts", Classes: 5, Instances: 200, ObjectProps: 6,
		DataProps: 4, LinkFactor: 2, CommunitySeeds: 2, Seed: 9,
	})
	classes := classesOf(mem)
	dir := t.TempDir()
	ds := openT(t, dir)
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	dropClassCounts(t, dir)

	const onto = "http://counts.example.org/onto#"
	var queries []string
	for _, c := range classes {
		queries = append(queries,
			fmt.Sprintf(`SELECT ?s WHERE { ?s a <%s> }`, c.Value),
			fmt.Sprintf(`SELECT ?s ?o WHERE { ?s a <%s> . ?s <%srel0> ?o }`, c.Value, onto),
			fmt.Sprintf(`SELECT ?s ?o ?v WHERE { ?s a <%s> . ?s <%srel1> ?o . ?o <%sattr1> ?v }`, c.Value, onto, onto),
			fmt.Sprintf(`SELECT DISTINCT ?p WHERE { ?s a <%s> . ?s ?p ?o }`, c.Value),
			fmt.Sprintf(`SELECT ?p (COUNT(*) AS ?n) WHERE { ?s a <%s> . ?s ?p ?o } GROUP BY ?p`, c.Value),
		)
	}
	ds = openT(t, dir)
	defer func() { ds.Close() }()
	runDifferential(t, mem, ds, queries)
	r := ds.Snapshot().(*disk.Reader)
	typ, class := r.Lookup(rdfType), r.Lookup(classes[0])
	before := ds.KVStats().Seeks
	walked := r.CardinalityIDs(store.IDPattern{P: typ, O: class})
	if ds.KVStats().Seeks == before {
		t.Fatal("a commit without class counts was answered without a walk")
	}
	r.Release()
	if mr := mem.Reader(); walked != mr.CardinalityIDs(store.IDPattern{P: mr.Lookup(rdfType), O: mr.Lookup(classes[0])}) {
		t.Fatalf("%s: walked %d instances", classes[0], walked)
	}

	s := instances(mem, classes[1])[0]
	apply(t, mem, ds,
		[]rdf.Triple{{S: s, P: rdfType, O: classes[1]}},
		[]rdf.Triple{{S: rdf.NewIRI("http://counts.example.org/res/new"), P: rdfType, O: classes[2]}})
	checkClassCounts(t, "first commit", mem, ds, classes)
	runDifferential(t, mem, ds, queries)

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := kv.Open(dir, kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := metaRecord(t, db)["class_count"]
	db.Close()
	if !ok {
		t.Fatal("the first commit after the reopen carries no class counts")
	}
	ds = openT(t, dir)
	checkClassCounts(t, "reopen", mem, ds, classes)
}
