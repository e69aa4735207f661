package kv

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestIterMatchesModel drives seeded random batches through flushes and
// compactions and, after each, re-seeks one standing cursor a few hundred
// times — ascending, descending, repeated, at "", past the last key,
// abandoned mid-range — checking every key and value it stands on against
// a sorted map. Scan is a loop over the same cursor, so nothing else
// checks the re-seek rules.
func TestIterMatchesModel(t *testing.T) {
	t.Run("cache=default", func(t *testing.T) { iterMatchesModel(t) })
	t.Run("cache=few-blocks", func(t *testing.T) {
		setBlockCacheBudget(t, fewBlocks)
		iterMatchesModel(t)
	})
}

func iterMatchesModel(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MaxSegments: 3, BlockBytes: 64, MemtableBytes: 1 << 10})
	defer db.Close()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }

	for round := 0; round < 40; round++ {
		var b Batch
		for i := 0; i < 30; i++ {
			k := key(rng.Intn(300))
			if rng.Intn(3) == 0 {
				b.Delete(k)
				delete(model, k)
			} else {
				v := fmt.Sprintf("val-%d-%d", round, i)
				b.Put(k, []byte(v))
				model[k] = v
			}
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}

		sorted := slices.Sorted(maps.Keys(model))
		sn := db.Snapshot()
		it := sn.Iter()
		// probe seeks to target and walks at most limit keys.
		probe := func(target string, limit int) {
			t.Helper()
			from, _ := slices.BinarySearch(sorted, target)
			it.Seek(target)
			for _, want := range sorted[from:min(len(sorted), from+limit)] {
				if !it.Valid() {
					t.Fatalf("round %d: Seek(%q) ended before %q", round, target, want)
				}
				if it.Key() != want || string(it.Value()) != model[want] {
					t.Fatalf("round %d: Seek(%q) stands on %q=%q, want %q=%q", round, target, it.Key(), it.Value(), want, model[want])
				}
				it.Next()
			}
			if from+limit >= len(sorted) && it.Valid() {
				t.Fatalf("round %d: Seek(%q) runs past the last key, to %q", round, target, it.Key())
			}
		}
		for i := 0; i < 300; i += 4 { // ascending, a short run each
			probe(key(i), 1+rng.Intn(4))
		}
		for i := 299; i >= 0; i -= 4 { // descending
			probe(key(i), 1+rng.Intn(4))
		}
		for i := 0; i < 60; i++ { // anywhere, each target twice, the first abandoned early
			k := key(rng.Intn(320))
			probe(k, rng.Intn(3))
			probe(k, 1+rng.Intn(40))
		}
		probe("", len(sorted)+1)
		probe("", 2)
		probe("zzz", 1)
		probe(key(150), len(sorted)+1)
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		sn.Release()
	}
	db.compactWG.Wait()
	if st := db.Stats(); st.Flushes < 5 || st.Compactions == 0 || st.SeeksInPlace == 0 || st.SeeksInPlace >= st.Seeks {
		t.Fatalf("want flushes, compactions and seeks of both kinds, got %+v", st)
	}
}

// TestCompactionDropsTombstones: a full merge has nothing older beneath
// it, so the merged segment holds exactly the live keys.
func TestCompactionDropsTombstones(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MaxSegments: 100, BlockBytes: 64})
	defer db.Close()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	var b Batch
	for i := 0; i < 50; i++ {
		b.Put(key(i), []byte("old"))
	}
	flushBatch(t, db, &b)
	b = Batch{}
	for i := 0; i < 20; i++ {
		b.Delete(key(i))
	}
	for i := 50; i < 60; i++ {
		b.Put(key(i), []byte("new"))
	}
	flushBatch(t, db, &b)
	b = Batch{}
	for i := 20; i < 30; i++ {
		b.Put(key(i), []byte("newer"))
	}
	b.Delete(key(59))
	b.Delete("never-written")
	flushBatch(t, db, &b)

	db.wmu.Lock()
	db.opts.MaxSegments = 2
	db.maybeCompactLocked()
	db.wmu.Unlock()
	db.compactWG.Wait()
	if st := db.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("want one merged segment, got %+v", st)
	}
	sn := db.Snapshot()
	defer sn.Release()
	live := countKeys(sn, "", "")
	if live != 39 {
		t.Fatalf("%d live keys, want 39", live)
	}
	if got := db.st.segs[0].count; got != uint64(live) {
		t.Fatalf("the merged segment holds %d entries for %d live keys: tombstones survived the merge", got, live)
	}
	wantGet(t, db, key(25), "newer", true)
	wantGet(t, db, key(5), "", false)
}

func flushBatch(t *testing.T, db *DB, b *Batch) {
	t.Helper()
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestIterReseekInPlace pins the first re-seek rule by its counters. An
// older segment holds twenty subjects of three keys; a newer one holds a
// key below them all and twenty above. Probing the subjects in ascending
// order moves each child once: the newer segment then stands on its first
// key above the probed range, the older one is stepped onto each next
// subject by the probe before it, and the empty memtable stays exhausted.
func TestIterReseekInPlace(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MaxSegments: 100, BlockBytes: 64})
	defer db.Close()
	var b Batch
	for s := 0; s < 20; s++ {
		for i := 0; i < 3; i++ {
			b.Put(fmt.Sprintf("a%02d-%d", s, i), []byte("v"))
		}
	}
	flushBatch(t, db, &b)
	b = Batch{}
	b.Put("0", []byte("v"))
	for s := 0; s < 20; s++ {
		b.Put(fmt.Sprintf("z%02d", s), []byte("v"))
	}
	flushBatch(t, db, &b)

	sn := db.Snapshot()
	defer sn.Release()
	it := sn.Iter()
	probe := func(prefix string, want int) {
		t.Helper()
		n, end := 0, PrefixEnd(prefix)
		for it.Seek(prefix); it.Valid() && it.Key() < end; it.Next() {
			n++
		}
		if n != want {
			t.Fatalf("probe %q: %d keys, want %d", prefix, n, want)
		}
	}
	type counts struct{ seeks, inPlace, blockLookups uint64 }
	check := func(stage string, want counts) {
		t.Helper()
		st := db.Stats()
		if got := (counts{st.Seeks, st.SeeksInPlace, st.BlockCacheHits + st.BlockCacheMisses}); got != want {
			t.Fatalf("%s: %+v, want %+v", stage, got, want)
		}
	}

	check("before any probe", counts{})
	probe("a00", 3)
	check("first probe: all three children move; the newer segment looks a block up, the older starts before its first", counts{3, 0, 1})
	for s := 1; s < 20; s++ {
		probe(fmt.Sprintf("a%02d", s), 3)
	}
	check("ascending probes: nothing moves, no block is looked up", counts{60, 57, 1})
	probe("a05", 3)
	check("back to a05: only the older segment moves", counts{63, 59, 2})
	probe("a10", 3)
	check("on to a10, past where it stands: the same", counts{66, 61, 3})
	probe("a11", 3)
	check("the next subject: in place again", counts{69, 64, 3})
	probe("", 0)
	check("below every interval: all three move, to before their first blocks", counts{72, 64, 3})
}

// TestReseekDoesNotAllocate: a probe on a standing cursor — the seek, the
// run and every step of it — allocates nothing.
func TestReseekDoesNotAllocate(t *testing.T) {
	db := benchDB(t)
	sn := db.Snapshot()
	defer sn.Release()
	it := sn.Iter()
	prefixes, ends := ascendingProbes()
	i := 0
	next := func() {
		probe(t, it, prefixes[i%len(prefixes)], ends[i%len(prefixes)])
		i++
	}
	next()
	if a := testing.AllocsPerRun(2000, next); a != 0 {
		t.Errorf("a probe on a standing cursor makes %.2f allocations, want none", a)
	}
}
