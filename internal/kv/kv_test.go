package kv

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func put(t *testing.T, db *DB, kvs ...string) {
	t.Helper()
	var b Batch
	for i := 0; i+1 < len(kvs); i += 2 {
		b.Put(kvs[i], []byte(kvs[i+1]))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func wantGet(t *testing.T, db *DB, key, want string, ok bool) {
	t.Helper()
	v, got := db.Get(key)
	if got != ok {
		t.Fatalf("Get(%q) present=%v, want %v", key, got, ok)
	}
	if ok && string(v) != want {
		t.Fatalf("Get(%q) = %q, want %q", key, v, want)
	}
}

// countKeys returns the number of live keys in [start, end).
func countKeys(sn *Snap, start, end string) int {
	n := 0
	sn.Scan(start, end, func(string, []byte) bool { n++; return true })
	return n
}

func TestPutGetDelete(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true})
	defer db.Close()

	put(t, db, "a", "1", "b", "2", "c", "3")
	wantGet(t, db, "a", "1", true)
	wantGet(t, db, "b", "2", true)
	wantGet(t, db, "z", "", false)

	var b Batch
	b.Delete("b")
	b.Put("a", []byte("1x"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	wantGet(t, db, "b", "", false)
	wantGet(t, db, "a", "1x", true)
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true})
	put(t, db, "k1", "v1", "k2", "v2")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put(t, db, "k3", "v3") // stays in WAL
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	wantGet(t, db, "k1", "v1", true)
	wantGet(t, db, "k2", "v2", true)
	wantGet(t, db, "k3", "v3", true)
	if st := db.Stats(); st.WALReplayed != 1 {
		t.Fatalf("WALReplayed = %d, want 1", st.WALReplayed)
	}
}

func TestDeleteAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true})
	defer db.Close()

	put(t, db, "doomed", "alive", "keep", "yes")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Delete("doomed")
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, db, "doomed", "", false)
	wantGet(t, db, "keep", "yes", true)

	// The tombstone must also win through a snapshot scan.
	sn := db.Snapshot()
	defer sn.Release()
	var keys []string
	sn.Scan("", "", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 1 || keys[0] != "keep" {
		t.Fatalf("scan = %v, want [keep]", keys)
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, BlockBytes: 32})
	defer db.Close()

	for i := 0; i < 50; i += 2 {
		put(t, db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Odd keys land in the memtable so the scan merges both layers.
	for i := 1; i < 50; i += 2 {
		put(t, db, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}

	sn := db.Snapshot()
	defer sn.Release()
	var got []string
	sn.Scan("k010", "k020", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("scan [k010,k020) returned %d keys: %v", len(got), got)
	}
	for i := 0; i < len(got); i++ {
		want := fmt.Sprintf("k%03d", 10+i)
		if got[i] != want {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want)
		}
	}
	if n := countKeys(sn, "", ""); n != 50 {
		t.Fatalf("Count = %d, want 50", n)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true})
	defer db.Close()

	put(t, db, "x", "old")
	sn := db.Snapshot()
	defer sn.Release()
	put(t, db, "x", "new", "y", "born-later")

	if v, ok := sn.Get("x"); !ok || string(v) != "old" {
		t.Fatalf("snapshot Get(x) = %q,%v; want old", v, ok)
	}
	if _, ok := sn.Get("y"); ok {
		t.Fatal("snapshot sees key written after capture")
	}
	wantGet(t, db, "x", "new", true)
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true, MaxSegments: 3, BlockBytes: 64})

	// Hold a snapshot across the compaction to exercise read-through on
	// unlinked segment files.
	put(t, db, "pin", "1")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Release()

	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			put(t, db, fmt.Sprintf("r%[1]d-k%03[2]d", round, i), fmt.Sprintf("%d.%d", round, i))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.compactWG.Wait()

	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran; stats %+v", st)
	}
	if st.Segments > 4 {
		t.Fatalf("segments = %d after compaction, want few", st.Segments)
	}
	wantGet(t, db, "r0-k000", "0.0", true)
	wantGet(t, db, "r5-k019", "5.19", true)
	if v, ok := sn.Get("pin"); !ok || string(v) != "1" {
		t.Fatalf("old snapshot broken after compaction: %q %v", v, ok)
	}

	// Reopen: the manifest must describe exactly the surviving files.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	wantGet(t, db, "r3-k010", "3.10", true)
	if n := countKeys(db.Snapshot(), "", ""); n != 1+6*20 {
		t.Fatalf("key count after reopen = %d, want %d", n, 1+6*20)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	put(t, db, "a", "1")
	put(t, db, "b", "2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: append garbage, then chop the last record
	// in half on a copy of the log.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, append(raw[:len(raw)-3], 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}

	db = openT(t, dir, Options{})
	defer db.Close()
	wantGet(t, db, "a", "1", true)
	wantGet(t, db, "b", "", false) // second record torn → dropped
	if st := db.Stats(); st.WALReplayed != 1 {
		t.Fatalf("WALReplayed = %d, want 1", st.WALReplayed)
	}
}

func TestOrphanSegmentDeleted(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true})
	put(t, db, "a", "1")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "seg-999999.seg")
	if err := os.WriteFile(orphan, []byte("partial segment from a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan segment not deleted: %v", err)
	}
	wantGet(t, db, "a", "1", true)
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", "abd"},
		{"a\xff", "b"},
		{"\xff\xff", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); got != c.want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// setBlockCacheBudget shrinks the process-wide block cache for one test,
// so that hits, misses and evictions all happen on a small store.
func setBlockCacheBudget(t *testing.T, budget int64) {
	t.Helper()
	blocks.mu.Lock()
	old := blocks.budget
	blocks.budget = budget
	blocks.mu.Unlock()
	t.Cleanup(func() {
		blocks.mu.Lock()
		blocks.budget = old
		blocks.mu.Unlock()
	})
}

// cachedBlocksOf counts the cache's entries for seg.
func cachedBlocksOf(seg *segment) int {
	blocks.mu.Lock()
	defer blocks.mu.Unlock()
	n := 0
	for k := range blocks.m {
		if k.seg == seg {
			n++
		}
	}
	return n
}

// fewBlocks is a cache budget of about four of the 64-byte blocks the
// small-store tests cut.
const fewBlocks = 1 << 10

// TestRandomizedAgainstMap drives random batches against the DB and a
// plain map, comparing full contents, point reads, bounded and
// early-stopped scans and counts through flush/compaction cycles and a
// reopen — once with the block cache at its real budget (everything
// fits: all hits after the first read) and once with room for a few
// blocks (evictions interleave with the flushes and compactions).
func TestRandomizedAgainstMap(t *testing.T) {
	t.Run("cache=default", func(t *testing.T) { randomizedAgainstMap(t) })
	t.Run("cache=few-blocks", func(t *testing.T) {
		setBlockCacheBudget(t, fewBlocks)
		randomizedAgainstMap(t)
	})
}

func randomizedAgainstMap(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true, MaxSegments: 2, BlockBytes: 64, MemtableBytes: 1 << 10})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }

	check := func(stage string) {
		t.Helper()
		sn := db.Snapshot()
		defer sn.Release()
		got := map[string]string{}
		prev := ""
		first := true
		sn.Scan("", "", func(k string, v []byte) bool {
			if !first && k <= prev {
				t.Fatalf("%s: scan out of order: %q after %q", stage, k, prev)
			}
			first, prev = false, k
			got[k] = string(v)
			return true
		})
		if len(got) != len(model) {
			t.Fatalf("%s: %d keys, want %d", stage, len(got), len(model))
		}
		for k, v := range model {
			if got[k] != v {
				t.Fatalf("%s: key %q = %q, want %q", stage, k, got[k], v)
			}
		}
		sorted := slices.Sorted(maps.Keys(model))
		for i := 0; i < 25; i++ {
			// point reads, present and absent
			k := key(rng.Intn(320))
			want, present := model[k]
			if v, ok := sn.Get(k); ok != present || string(v) != want {
				t.Fatalf("%s: Get(%q) = %q,%v, want %q,%v", stage, k, v, ok, want, present)
			}
			// a bounded scan stopped after at most limit keys
			lo, hi := key(rng.Intn(320)), key(rng.Intn(320))
			if lo > hi {
				lo, hi = hi, lo
			}
			from, _ := slices.BinarySearch(sorted, lo)
			to, _ := slices.BinarySearch(sorted, hi)
			limit := 1 + rng.Intn(8)
			var seen []string
			sn.Scan(lo, hi, func(k string, v []byte) bool {
				if model[k] != string(v) {
					t.Fatalf("%s: Scan(%q,%q) saw %q=%q, want %q", stage, lo, hi, k, v, model[k])
				}
				seen = append(seen, k)
				return len(seen) < limit
			})
			if want := sorted[from:min(to, from+limit)]; !slices.Equal(seen, want) {
				t.Fatalf("%s: Scan(%q,%q) limit %d = %v, want %v", stage, lo, hi, limit, seen, want)
			}
			if n := countKeys(sn, lo, hi); n != to-from {
				t.Fatalf("%s: Count(%q,%q) = %d, want %d", stage, lo, hi, n, to-from)
			}
		}
	}

	for round := 0; round < 30; round++ {
		var b Batch
		for i := 0; i < 40; i++ {
			k := key(rng.Intn(300))
			if rng.Intn(5) == 0 {
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
		if rng.Intn(4) == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	db.compactWG.Wait()
	check("after compaction settles")
	st := db.Stats()
	if st.BlockCacheHits == 0 || st.BlockCacheMisses == 0 || st.ReadErrors != 0 {
		t.Fatalf("want cache hits and misses and no read errors, got %+v", st)
	}
	blocks.mu.Lock()
	total, budget := blocks.bytes, blocks.budget
	blocks.mu.Unlock()
	if st.BlockCacheBytes <= 0 || st.BlockCacheBytes > total || total > budget {
		t.Fatalf("cache holds %d bytes (this DB %d) against a budget of %d", total, st.BlockCacheBytes, budget)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if held := db.Stats().BlockCacheBytes; held != 0 {
		t.Fatalf("a closed DB still holds %d cache bytes", held)
	}
	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	check("after reopen")
}

// TestBatchLastOpWins pins Apply's reduction of a batch to its net
// effect: ops on one key apply in order, the last one stands.
func TestBatchLastOpWins(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true})
	var b Batch
	b.Put("k", []byte("1"))
	b.Delete("k")
	b.Put("k", []byte("3"))
	b.Put("gone", []byte("x"))
	b.Delete("gone")
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	wantGet(t, db, "k", "3", true)
	wantGet(t, db, "gone", "", false)
	if st := db.Stats(); st.MemtableKeys != 2 {
		t.Fatalf("MemtableKeys = %d, want 2 (one entry per key)", st.MemtableKeys)
	}
	// replay applies the same record the same way
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	wantGet(t, db, "k", "3", true)
	wantGet(t, db, "gone", "", false)
}

// TestMemtableLeaves drives the copy-on-write memtable through leaf
// splits with one-key and bulk batches in scrambled order, checking the
// structure's invariants, its accounting and its contents against a map
// — for the final version and for an earlier one kept aside, which the
// later applies must have left exactly as it was.
func TestMemtableLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := emptyMemtable
	model := map[string]entry{}
	apply := func(ops []entry) {
		m = m.apply(sortedOps(ops))
		for _, o := range ops {
			model[o.k] = o
		}
	}
	verify := func(stage string, m *memtable, model map[string]entry) {
		t.Helper()
		bytes, keys, prev := 0, 0, ""
		for li, leaf := range m.leaves {
			if len(leaf) == 0 || len(leaf) > leafMax {
				t.Fatalf("%s: leaf %d has %d entries, want 1..%d", stage, li, len(leaf), leafMax)
			}
			for _, e := range leaf {
				if keys > 0 && e.k <= prev {
					t.Fatalf("%s: leaf %d: %q after %q", stage, li, e.k, prev)
				}
				prev = e.k
				keys++
				bytes += len(e.k) + memEntryOverhead + len(e.v)
				if want, ok := model[e.k]; !ok || string(want.v) != string(e.v) || want.del != e.del {
					t.Fatalf("%s: key %q = %q/%v, want %q/%v (present %v)", stage, e.k, e.v, e.del, want.v, want.del, ok)
				}
			}
		}
		if keys != len(model) || m.keys != keys || m.bytes != bytes {
			t.Fatalf("%s: walked %d keys / %d bytes; memtable says %d / %d; model has %d", stage, keys, bytes, m.keys, m.bytes, len(model))
		}
		for k, want := range model {
			if e, ok := m.get(k); !ok || string(e.v) != string(want.v) || e.del != want.del {
				t.Fatalf("%s: get(%q) = %q/%v/%v", stage, k, e.v, e.del, ok)
			}
		}
		if _, ok := m.get("absent"); ok {
			t.Fatalf("%s: get found an absent key", stage)
		}
	}

	for i := 0; i < 3000; i++ {
		apply([]entry{{k: fmt.Sprintf("one-%05d", rng.Intn(4000)), v: []byte{byte(i)}}})
	}
	published, publishedModel := m, maps.Clone(model)
	for round := 0; round < 5; round++ {
		var ops []entry
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("bulk-%06d", rng.Intn(20000))
			if i%4 == 0 {
				k = fmt.Sprintf("one-%05d", rng.Intn(4000)) // rewrite published leaves too
			}
			ops = append(ops, entry{k: k, v: []byte(k), del: rng.Intn(7) == 0})
		}
		apply(ops)
	}
	verify("final", m, model)
	verify("published earlier", published, publishedModel)
}

// allocBytesPer returns the mean bytes allocated by one call of fn.
func allocBytesPer(n int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestSnapshotCostIndependentOfMemtable is the contract that Snapshot
// copies nothing: it makes the same allocations, of the same size, at
// 1 k and at 50 k buffered keys.
func TestSnapshotCostIndependentOfMemtable(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MemtableBytes: 1 << 30})
	defer db.Close()
	fill := func(from, to int) {
		var b Batch
		for i := from; i < to; i++ {
			b.Put(fmt.Sprintf("key-%07d", i), []byte("v"))
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() { db.Snapshot().Release() }
	fill(0, 1000)
	smallN, smallB := testing.AllocsPerRun(100, snapshot), allocBytesPer(100, snapshot)
	fill(1000, 50000)
	if st := db.Stats(); st.MemtableKeys != 50000 {
		t.Fatalf("MemtableKeys = %d, want 50000", st.MemtableKeys)
	}
	largeN, largeB := testing.AllocsPerRun(100, snapshot), allocBytesPer(100, snapshot)
	if largeN != smallN || largeB > smallB+64 {
		t.Fatalf("Snapshot allocates %.0f objects / %d bytes at 1k keys, %.0f / %d at 50k", smallN, smallB, largeN, largeB)
	}
}

// TestOneKeyBatchesStayCheap guards Apply's cost bound — batch plus
// touched leaves, not the memtable — where it would show first: one-key
// batches against a large memtable. Copying the memtable per Apply would
// allocate megabytes each time.
func TestOneKeyBatchesStayCheap(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MemtableBytes: 1 << 30})
	defer db.Close()
	var b Batch
	for i := 0; i < 50000; i++ {
		b.Put(fmt.Sprintf("key-%07d", i), []byte("v"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	i := 0
	per := allocBytesPer(n, func() {
		var b Batch
		b.Put(fmt.Sprintf("key-%07d-x", (i*7919)%50000), []byte("v"))
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// one leaf (≤ 256 entries) plus the directory (≈ 400 slice headers)
	if per > 64<<10 {
		t.Fatalf("a one-key Apply allocates %d bytes against a 50k-key memtable", per)
	}
	if st := db.Stats(); st.MemtableKeys != 50000+n {
		t.Fatalf("MemtableKeys = %d, want %d", st.MemtableKeys, 50000+n)
	}
}

// TestSnapshotSurvivesFlushAndCompaction: a snapshot taken before an
// Apply sees none of it — not when the memtable it captured is flushed,
// not when the segments it pinned are compacted away — while a second
// goroutine scans it throughout.
func TestSnapshotSurvivesFlushAndCompaction(t *testing.T) {
	db := openT(t, t.TempDir(), Options{NoSync: true, MaxSegments: 2, BlockBytes: 64})
	defer db.Close()
	const n = 200
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for seg := 0; seg < 2; seg++ { // two segments and a memtable under the snapshot
		var b Batch
		for i := seg; i < n; i += 3 {
			b.Put(key(i), []byte("old"))
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var b Batch
	for i := 2; i < n; i += 3 {
		b.Put(key(i), []byte("old"))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Release()
	pinned := sn.st.segs // retired by the compactions below, kept open by sn

	check := func() error {
		seen := 0
		var bad error
		sn.Scan("", "", func(k string, v []byte) bool {
			if string(v) != "old" || k != key(seen) {
				bad = fmt.Errorf("snapshot scan saw %q=%q at position %d", k, v, seen)
				return false
			}
			seen++
			return true
		})
		if bad == nil && seen != n {
			bad = fmt.Errorf("snapshot scan saw %d keys, want %d", seen, n)
		}
		if v, ok := sn.Get(key(n / 2)); bad == nil && (!ok || string(v) != "old") {
			bad = fmt.Errorf("snapshot Get = %q,%v", v, ok)
		}
		return bad
	}

	stop := make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scanned <- nil
				return
			default:
			}
			if err := check(); err != nil {
				scanned <- err
				return
			}
		}
	}()

	// overwrite, delete and extend, through flushes and compactions
	for round := 0; round < 6; round++ {
		var b Batch
		for i := 0; i < n; i++ {
			switch {
			case i%5 == round%5:
				b.Delete(key(i))
			default:
				b.Put(key(i), []byte(fmt.Sprintf("new-%d", round)))
			}
		}
		b.Put(fmt.Sprintf("later-%d", round), []byte("x"))
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.compactWG.Wait()
	close(stop)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Flushes < 8 || st.Compactions == 0 {
		t.Fatalf("want flushes and a compaction behind the snapshot, got %+v", st)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, db, "later-5", "x", true)

	// The snapshot's reads went through the block cache; the blocks of a
	// retired segment stay there exactly as long as someone can still
	// read the segment.
	cached := func() (n int) {
		for _, seg := range pinned {
			n += cachedBlocksOf(seg)
		}
		return n
	}
	if cached() == 0 {
		t.Fatal("the snapshot's Gets cached no block of its segments")
	}
	sn.Release()
	if n := cached(); n != 0 {
		t.Fatalf("%d blocks of retired segments still cached after the last snapshot was released", n)
	}
}

// TestEncodeBatchSizesOnce: a batch's WAL record is allocated once, at
// its final length, and its payload decodes to the batch's ops. Key lengths, value
// lengths and the op count straddle a one-byte uvarint.
func TestEncodeBatchSizesOnce(t *testing.T) {
	b := &Batch{}
	for _, n := range []int{0, 1, 127, 128, 300, 20000} {
		b.Put(strings.Repeat("k", n+1), []byte(strings.Repeat("v", n)))
		b.Delete(strings.Repeat("d", n+1))
	}
	for i := 0; i < 200; i++ {
		b.Put(fmt.Sprint(i), nil)
	}
	p := encodeBatch(b)
	if len(p) != cap(p) {
		t.Fatalf("record of %d bytes in a buffer of %d", len(p), cap(p))
	}
	got, err := decodeBatch(p[walFrameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range got.ops {
		if w := b.ops[i]; o.k != w.k || o.del != w.del || string(o.v) != string(w.v) {
			t.Fatalf("op %d decodes to %+v, want %+v", i, o, w)
		}
	}
	if len(got.ops) != len(b.ops) {
		t.Fatalf("%d ops decoded, want %d", len(got.ops), len(b.ops))
	}
}

// TestApplyAllocatesItsWALRecordOnce: Apply encodes a batch into its WAL
// record and writes that buffer, header and all, so a batch's bytes are
// allocated once on their way to the log. Copying the payload into a
// frame of its own took twice the batch's size. The record on disk is
// the same: it replays to the batch.
func TestApplyAllocatesItsWALRecordOnce(t *testing.T) {
	const size = 1 << 20
	dir := t.TempDir()
	db := openT(t, dir, Options{NoSync: true})
	b := &Batch{}
	b.Put("big", bytes.Repeat([]byte{'v'}, size))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > size*5/4 {
		t.Errorf("applying a %d-byte value allocated %d bytes: its WAL bytes more than once", size, alloc)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openT(t, dir, Options{NoSync: true})
	defer db.Close()
	if v, ok := db.Get("big"); !ok || len(v) != size {
		t.Fatalf("after replay: %d bytes (%v), want %d", len(v), ok, size)
	}
	if st := db.Stats(); st.WALReplayed != 1 {
		t.Fatalf("replayed %d WAL records, want 1", st.WALReplayed)
	}
}
