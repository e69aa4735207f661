package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// threeSegments returns a DB over three flushed segments that never
// compacts on its own: segment i holds the keys s<i>-k000..k039, and
// every segment holds "shared" with the value "v<i>".
func threeSegments(t *testing.T, dir string) *DB {
	t.Helper()
	db := openT(t, dir, Options{NoSync: true, MaxSegments: 100, BlockBytes: 64})
	for seg := 0; seg < 3; seg++ {
		var b Batch
		for i := 0; i < 40; i++ {
			b.Put(fmt.Sprintf("s%d-k%03d", seg, i), []byte(fmt.Sprintf("val-%d-%d", seg, i)))
		}
		b.Put("shared", []byte(fmt.Sprintf("v%d", seg)))
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestCompactionAbortsOnReadError: a source segment that cannot be read
// must fail the merge, not shorten it. Before the cursor recorded its
// error, the failed source looked exhausted, the merge was committed
// without its keys and the source files were unlinked.
func TestCompactionAbortsOnReadError(t *testing.T) {
	dir := t.TempDir()
	db := threeSegments(t, dir)
	defer db.Close()
	manifestBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	db.wmu.Lock()
	db.st.segs[1].f.Close() // every read of the middle segment now fails
	db.opts.MaxSegments = 2
	db.maybeCompactLocked()
	db.wmu.Unlock()
	db.compactWG.Wait()

	st := db.Stats()
	if st.Compactions != 0 || st.Segments != 3 {
		t.Fatalf("a merge with an unreadable source was committed: %+v", st)
	}
	if st.ReadErrors == 0 {
		t.Fatalf("the failed read was not counted: %+v", st)
	}
	manifestAfter, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifestBefore, manifestAfter) {
		t.Fatalf("manifest changed:\n%s\n→\n%s", manifestBefore, manifestAfter)
	}
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(files) != 3 {
		t.Fatalf("segment files after the aborted merge: %v (%v), want the three sources", files, err)
	}
	for _, seg := range []int{0, 2} {
		for i := 0; i < 40; i++ {
			wantGet(t, db, fmt.Sprintf("s%d-k%03d", seg, i), fmt.Sprintf("val-%d-%d", seg, i), true)
		}
	}
	db.wmu.Lock()
	compacting := db.compacting
	db.wmu.Unlock()
	if compacting {
		t.Fatal("the aborted merge left the compacting flag set")
	}
}

// TestGetStopsAtUnreadableSegment: when the newest segment that could
// hold a key cannot be read, Get must not answer from an older one.
func TestGetStopsAtUnreadableSegment(t *testing.T) {
	db := threeSegments(t, t.TempDir())
	defer db.Close()
	wantGet(t, db, "s0-k007", "val-0-7", true)

	db.wmu.Lock()
	db.st.segs[2].f.Close()
	db.wmu.Unlock()

	if v, ok := db.Get("shared"); ok {
		t.Fatalf("Get(shared) = %q from an older segment; the newest is unreadable", v)
	}
	if n := db.Stats().ReadErrors; n != 1 {
		t.Fatalf("ReadErrors = %d, want 1", n)
	}
	// "s0-k007" sorts before the unreadable segment's first key, so its
	// index alone rules it out and no read is attempted.
	wantGet(t, db, "s0-k007", "val-0-7", true)
}

// aliases reports whether s's bytes lie inside buf's.
func aliases(s string, buf []byte) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestWriterCopiesTheKeysItKeeps: a cursor's keys alias the block they
// were decoded from, so a segWriter fed from a cursor (a compaction)
// must copy the one key per output block it holds until finish() — or
// every output block pins a source block and the whole merge stays
// live.
func TestWriterCopiesTheKeysItKeeps(t *testing.T) {
	dir := t.TempDir()
	db := threeSegments(t, dir)
	defer db.Close()
	src := db.st.segs[0]

	var sourceBlocks [][]byte
	for bi := range src.blocks {
		b, err := src.seekBlock(bi) // the buffers a seeking cursor reads from
		if err != nil {
			t.Fatal(err)
		}
		sourceBlocks = append(sourceBlocks, b.data)
	}
	sw, err := newSegWriter(filepath.Join(dir, "copy.seg"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.abort()
	aliased := 0
	for bi := range src.blocks {
		it := segIter{s: src}
		it.seek(src.blocks[bi].first)
		if !it.next() {
			t.Fatalf("block %d: empty", bi)
		}
		if aliases(it.key(), sourceBlocks[bi]) {
			aliased++
		}
		if err := sw.add(it.key(), it.value(), it.deleted()); err != nil {
			t.Fatal(err)
		}
	}
	if aliased != len(src.blocks) {
		t.Fatalf("%d of %d cursor keys alias their cached block; the test no longer checks anything", aliased, len(src.blocks))
	}
	held := []string{sw.blockFirst}
	for _, bm := range sw.blocks {
		held = append(held, bm.first)
	}
	for _, k := range held {
		for bi, data := range sourceBlocks {
			if aliases(k, data) {
				t.Fatalf("the writer holds key %q inside source block %d", k, bi)
			}
		}
	}
}

// TestCompactedIndexAndValuesOutliveBlocks: after a compaction the merged
// segment's index keys point into no cached block, and a value returned
// by Get stays intact after its block has been evicted.
func TestCompactedIndexAndValuesOutliveBlocks(t *testing.T) {
	setBlockCacheBudget(t, fewBlocks)
	db := threeSegments(t, t.TempDir())
	defer db.Close()
	sn := db.Snapshot() // reads below fill the cache from the source segments
	defer sn.Release()
	for i := 0; i < 40; i += 5 {
		sn.Get(fmt.Sprintf("s1-k%03d", i))
	}
	db.wmu.Lock()
	db.opts.MaxSegments = 2
	db.maybeCompactLocked()
	db.wmu.Unlock()
	db.compactWG.Wait()
	if st := db.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("want one merged segment, got %+v", st)
	}
	merged := db.st.segs[0]

	val, ok := db.Get("s1-k020")
	if !ok {
		t.Fatal("s1-k020 lost")
	}
	kept := bytes.Clone(val)
	for round := 0; round < 3; round++ { // push every block through the small cache
		for seg := 0; seg < 3; seg++ {
			for i := 0; i < 40; i++ {
				wantGet(t, db, fmt.Sprintf("s%d-k%03d", seg, i), fmt.Sprintf("val-%d-%d", seg, i), true)
			}
		}
	}
	again, _ := db.Get("s1-k020")
	if unsafe.SliceData(again) == unsafe.SliceData(val) {
		t.Fatal("the block was never evicted; the test no longer checks anything")
	}
	if !bytes.Equal(val, kept) || !bytes.Equal(again, kept) {
		t.Fatalf("value changed after its block was evicted: %q, reread %q, want %q", val, again, kept)
	}

	blocks.mu.Lock()
	defer blocks.mu.Unlock()
	for el := blocks.lru.Front(); el != nil; el = el.Next() {
		data := el.Value.(cachedBlock).b.data
		for _, bm := range merged.blocks {
			if aliases(bm.first, data) {
				t.Fatalf("index key %q of the merged segment points into a cached block", bm.first)
			}
		}
	}
}

// TestProbesDoNotAllocatePerKey: warm, a one-subject prefix Scan and an
// absent-key Get over six segments and a memtable make a small constant
// number of allocations — the cursors and the merge's bookkeeping — not
// one string per entry decoded and one buffer per segment.
func TestProbesDoNotAllocatePerKey(t *testing.T) {
	db := benchDB(t)
	sn := db.Snapshot()
	defer sn.Release()
	prefix := benchKey('s', 4242, 0, 0)[:5]
	end := PrefixEnd(prefix)
	n := 0
	scan := func() { sn.Scan(prefix, end, func(string, []byte) bool { n++; return true }) }
	if scan(); n != benchPerSubj {
		t.Fatalf("prefix scan saw %d keys, want %d", n, benchPerSubj)
	}
	if a := testing.AllocsPerRun(200, scan); a > 6 {
		t.Errorf("a warm prefix Scan makes %.0f allocations, want at most 6", a)
	}
	absent := benchKey('s', 4242, 1, 2*4242+1)
	get := func() {
		if _, ok := db.Get(absent); ok {
			t.Fatal("absent key found")
		}
	}
	if a := testing.AllocsPerRun(200, get); a != 0 {
		t.Errorf("a warm absent-key Get makes %.0f allocations, want none", a)
	}
}
