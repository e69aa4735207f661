package disk_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store/disk"
)

// Crash recovery through the live mutation path: each committed batch is
// update-shaped — deletes of previously committed triples and fresh
// inserts in the same flush, the WAL footprint of a DELETE/INSERT WHERE
// request. A writer killed mid-append must recover to exactly a prefix
// of the committed updates: a batch's tombstones and inserts land
// atomically or not at all, never a half-applied update.

const updateBatches = 20

// updateBatch returns the delta of update i over the state left by the
// updates before it. Update 0 seeds a base population; every later
// update reclassifies the previous update's subjects (delete the old
// rdf:type, insert a new one — the DELETE/INSERT WHERE shape) and
// inserts a fresh generation of subjects.
func updateBatch(i int) (dels, ins []rdf.Triple) {
	class := func(g int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://example.org/Gen%d", g))
	}
	subj := func(g, j int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://example.org/u/%02d/%d", g, j))
	}
	typ := rdf.NewIRI(rdf.RDFType)
	name := rdf.NewIRI("http://example.org/name")
	if i > 0 {
		// reclassify the previous generation
		for j := 0; j < 4; j++ {
			dels = append(dels, rdf.Triple{S: subj(i-1, j), P: typ, O: class(i - 1)})
			ins = append(ins, rdf.Triple{S: subj(i-1, j), P: typ, O: class(i)})
		}
		// and retire one of its names outright
		dels = append(dels, rdf.Triple{S: subj(i-1, 0), P: name, O: rdf.NewLiteral(fmt.Sprintf("n-%02d-0", i-1))})
	}
	for j := 0; j < 4; j++ {
		ins = append(ins, rdf.Triple{S: subj(i, j), P: typ, O: class(i)})
		ins = append(ins, rdf.Triple{S: subj(i, j), P: name, O: rdf.NewLiteral(fmt.Sprintf("n-%02d-%d", i, j))})
	}
	return dels, ins
}

// updateSets[k] is the triple set after the first k update batches.
func updateSets() []map[string]rdf.Triple {
	sets := make([]map[string]rdf.Triple, updateBatches+1)
	sets[0] = map[string]rdf.Triple{}
	for i := 0; i < updateBatches; i++ {
		next := map[string]rdf.Triple{}
		for k, tr := range sets[i] {
			next[k] = tr
		}
		dels, ins := updateBatch(i)
		for _, tr := range dels {
			delete(next, tripleKeyStr(tr))
		}
		for _, tr := range ins {
			next[tripleKeyStr(tr)] = tr
		}
		sets[i+1] = next
	}
	return sets
}

// writeUpdateCorpus commits updateBatches update-shaped flushes — each
// one deletes and inserts in the same WAL record — and closes the store.
func writeUpdateCorpus(t *testing.T, dir string, opts disk.Options) {
	t.Helper()
	ds, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < updateBatches; i++ {
		dels, ins := updateBatch(i)
		for _, tr := range dels {
			if ok, err := ds.Delete(tr); err != nil || !ok {
				t.Fatalf("update %d: delete %v: ok=%v err=%v", i, tr, ok, err)
			}
		}
		for _, tr := range ins {
			if ok, err := ds.Insert(tr); err != nil || !ok {
				t.Fatalf("update %d: insert %v: ok=%v err=%v", i, tr, ok, err)
			}
		}
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryMidUpdate truncates the WAL at every update-record
// boundary, one byte either side, and seeded random offsets. The
// recovered store must hold exactly the state after some prefix of the
// updates — in particular, a torn final record must roll the whole
// update back, tombstones and inserts together.
func TestCrashRecoveryMidUpdate(t *testing.T) {
	src := t.TempDir()
	writeUpdateCorpus(t, src, disk.Options{})
	sets := updateSets()
	walPath := filepath.Join(src, "wal.log")
	bounds := walBoundaries(t, walPath)
	if len(bounds) != updateBatches {
		t.Fatalf("WAL holds %d records, want %d (one per update)", len(bounds), updateBatches)
	}
	size := bounds[len(bounds)-1]

	var offsets []int64
	for _, b := range bounds {
		offsets = append(offsets, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(20260809))
	for i := 0; i < 12; i++ {
		offsets = append(offsets, rng.Int63n(size+1))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	for _, off := range offsets {
		if off < 0 || off > size {
			continue
		}
		wantK := sort.Search(len(bounds), func(i int) bool { return bounds[i] > off })
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), off); err != nil {
			t.Fatal(err)
		}
		if gotK := checkRecovered(t, dir, sets); gotK != wantK {
			t.Fatalf("truncate at %d: recovered %d updates, want %d", off, gotK, wantK)
		}
	}
}

// TestCrashRecoveryMidUpdateWithSegments reruns random cuts with a tiny
// memtable, so earlier updates have been compacted into segments and
// their tombstones already folded in. Updates resident in segments must
// survive losing the whole WAL tail.
func TestCrashRecoveryMidUpdateWithSegments(t *testing.T) {
	src := t.TempDir()
	opts := disk.Options{}
	opts.KV.MemtableBytes = 1 << 11
	opts.KV.MaxSegments = 3
	writeUpdateCorpus(t, src, opts)
	sets := updateSets()
	walPath := filepath.Join(src, "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	floorK := -1
	{
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), 0); err != nil {
			t.Fatal(err)
		}
		floorK = checkRecovered(t, dir, sets)
	}
	if floorK < 1 {
		t.Fatalf("no updates survived in segments (floor %d); memtable threshold too large?", floorK)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		off := rng.Int63n(info.Size() + 1)
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), off); err != nil {
			t.Fatal(err)
		}
		if gotK := checkRecovered(t, dir, sets); gotK < floorK {
			t.Fatalf("truncate at %d: recovered %d updates, below segment floor %d", off, gotK, floorK)
		}
	}
}
