// Package kv is a dependency-free, crash-safe embedded key-value store:
// an append-only WAL in front of an ordered in-memory memtable, flushed
// into sorted immutable segment files with a block index, full-merged by
// a background compactor when segments accumulate. Keys are arbitrary
// byte strings compared lexicographically, so fixed-width big-endian
// encodings give ordered range scans — the property the dictionary-
// encoded triple tables in internal/store/disk are built on.
//
// Durability model: every Apply appends one framed record (length +
// CRC32) for the whole batch and fsyncs it (unless Options.NoSync), so
// a batch is atomic — after a crash, replay recovers a prefix of whole
// batches and truncates the first torn record. Flushing the memtable
// writes a segment, commits it in MANIFEST.json (temp file + rename +
// fsync of file and directory), then resets the WAL; a crash between
// those steps only replays work already in a segment, which is
// idempotent. Open therefore costs O(segments + WAL bytes), not
// O(dataset) — the instant-restart path. A bulk load into an empty DB
// skips the WAL altogether: Ingest writes its sorted keys as one segment
// that the manifest alone commits.
//
// Concurrency model: what a reader sees is one immutable value — an
// ordered copy-on-write memtable (memtable.go) plus the segment list —
// replaced, never modified, by pointer swap. Two locks keep reads off
// the write path. The writer lock serialises Apply, Flush and the
// manifest commits of flush and compaction; every WAL append, segment
// write and fsync happens under it and only under it. The state lock
// guards the published pointer (and the counters) for the few
// instructions it takes to swap it or to capture it and pin its
// segments, and is never held across a syscall. So Snapshot is O(1) in
// the memtable's size, and neither it nor Get ever waits for an fsync.
// A third lock, the block cache's (blockcache.go), is shared by every DB
// in the process; it is held for a map operation and a list splice,
// never across a read, and nothing else is taken under it.
//
// Memory model of what reads return: segment blocks are immutable
// garbage-collected byte slices, and the keys and values Get, Scan and
// an Iter hand out alias them (or the memtable). They are read-only;
// they stay valid for as long as they are held, each pinning at most one
// block.
package kv

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// Options tunes a DB. The zero value selects the defaults.
type Options struct {
	// MemtableBytes is the flush threshold for buffered writes
	// (default 4 MiB). The WAL is bounded by the same figure, which
	// bounds replay work at open.
	MemtableBytes int
	// MaxSegments is the segment count above which the background
	// compactor full-merges the segment list (default 6).
	MaxSegments int
	// BlockBytes is the segment block size; one block is the unit of
	// read I/O and of index granularity (default 4096).
	BlockBytes int
	// NoSync skips the per-Apply fsync, for the throughput of tests; a
	// crash may lose the tail of acknowledged batches, never torn ones.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 6
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 4096
	}
	return o
}

// Stats is a point-in-time snapshot of the DB's counters; the obs layer
// exports these as the hbold_kv_* metric families.
type Stats struct {
	WALAppends    uint64 // batches appended to the WAL
	WALBytes      uint64 // payload bytes appended to the WAL
	WALReplayed   uint64 // records recovered by replay at Open
	Flushes       uint64 // memtable → segment flushes
	Compactions   uint64 // full merges completed
	Segments      int    // live segment files
	SegmentBytes  int64  // total bytes across live segments
	MemtableKeys  int    // keys buffered in the memtable
	MemtableBytes int    // approximate memtable footprint

	BlockCacheHits   uint64 // seeks answered from the decoded-block cache
	BlockCacheMisses uint64 // seeks that read and indexed a block
	BlockCacheBytes  int64  // this DB's share of the process-wide cache
	ReadErrors       uint64 // segment reads or decodes that failed

	Seeks        uint64 // times a merged cursor's Seek asked one of its children to position itself
	SeeksInPlace uint64 // of those, answered without moving: the child already stood at or past the target
	Gets         uint64 // point reads through DB.Get
}

// state is what readers see: replaced whole, never modified.
type state struct {
	mem  *memtable
	segs []*segment // oldest → newest
}

// releasedState is what a released snapshot points at: nothing, so a
// stray read cannot touch a closed file.
var releasedState = &state{mem: emptyMemtable}

// DB is an open key-value store. All methods are safe for concurrent
// use; reads never wait for a write in progress.
type DB struct {
	dir  string
	opts Options

	// wmu is the writer lock: it serialises Apply, Flush, Close and the
	// manifest commit that ends a compaction, and is held across their
	// I/O. The fields below it are the writer's own.
	wmu        sync.Mutex
	wal        *wal
	nextSeq    uint64
	closed     bool
	compacting bool
	compactWG  sync.WaitGroup

	// mu is the state lock: st is replaced (by a holder of wmu) and
	// captured under it, stats are bumped and read under it. Never held
	// across a syscall. A holder of wmu may read st without it.
	mu    sync.Mutex
	st    *state
	stats Stats

	reads readCounters // bumped by this DB's segments, lock-free
}

const manifestName = "MANIFEST.json"

type manifest struct {
	Segments []string `json:"segments"` // oldest → newest
	NextSeq  uint64   `json:"next_seq"`
}

// Open opens (or creates) the store in dir, replaying the WAL into the
// memtable and deleting any segment files a crash left uncommitted.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opts: opts}

	var m manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("kv: corrupt manifest: %w", err)
		}
	case os.IsNotExist(err):
		// fresh store
	default:
		return nil, err
	}
	db.nextSeq = m.NextSeq
	var segs []*segment
	committed := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		committed[name] = true
		seg, err := openSegment(filepath.Join(dir, name), &db.reads)
		if err != nil {
			releaseAll(segs)
			return nil, fmt.Errorf("kv: segment %s: %w", name, err)
		}
		segs = append(segs, seg)
	}
	// Segments written but never committed to the manifest are garbage
	// from a crash mid-flush, mid-compaction or mid-ingest, and so is a
	// manifest a crash caught before its rename.
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err == nil {
		for _, p := range names {
			if !committed[filepath.Base(p)] {
				os.Remove(p)
			}
		}
	}
	if names, err := filepath.Glob(filepath.Join(dir, ".tmp-*")); err == nil {
		for _, p := range names {
			os.Remove(p)
		}
	}

	w, payloads, err := openWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		releaseAll(segs)
		return nil, err
	}
	db.wal = w
	mem := emptyMemtable
	for _, p := range payloads {
		b, err := decodeBatch(p)
		if err != nil {
			// openWAL already validated framing CRCs; a payload that
			// fails structural decode means a writer bug, not a torn
			// write. Refuse to guess.
			releaseAll(segs)
			w.close()
			return nil, fmt.Errorf("kv: corrupt WAL batch: %w", err)
		}
		mem = mem.apply(sortedOps(b.ops))
		db.stats.WALReplayed++
	}
	db.st = &state{mem: mem, segs: segs}
	return db, nil
}

func releaseAll(segs []*segment) {
	for _, s := range segs {
		s.release()
	}
}

// Batch is an ordered set of writes applied atomically by Apply.
type Batch struct {
	ops []entry
}

// Put records a key/value write. The value is retained until Apply.
func (b *Batch) Put(key string, val []byte) {
	b.ops = append(b.ops, entry{k: key, v: val})
}

// Delete records a key deletion.
func (b *Batch) Delete(key string) {
	b.ops = append(b.ops, entry{k: key, del: true})
}

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Apply atomically commits the batch: one WAL record (fsynced unless
// NoSync), then the memtable. Crossing the memtable threshold flushes
// inline, so the caller's write rate is also the flush backpressure.
func (db *DB) Apply(b *Batch) error {
	if len(b.ops) == 0 {
		return nil
	}
	frame := encodeBatch(b)
	ops := sortedOps(b.ops)
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return errClosed
	}
	if err := db.wal.append(frame, !db.opts.NoSync); err != nil {
		return err
	}
	mem := db.st.mem.apply(ops)
	db.mu.Lock()
	db.st = &state{mem: mem, segs: db.st.segs}
	db.stats.WALAppends++
	db.stats.WALBytes += uint64(len(frame) - walFrameHeader)
	db.mu.Unlock()
	if mem.bytes >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

var errClosed = fmt.Errorf("kv: closed")

// pin captures the current state with a reference on each segment, so
// the caller can read the files after the state lock is gone.
func (db *DB) pin() *state {
	db.mu.Lock()
	st := db.st
	for _, s := range st.segs {
		s.acquire()
	}
	db.mu.Unlock()
	return st
}

// get returns the newest value for key in st, reading newest segment
// first. The caller holds references on st's segments. A segment that
// cannot be read ends the search as "absent" (the segment counted the
// error): falling through to an older segment could answer with a value
// the unreadable one had overwritten or deleted.
func (st *state) get(key string) ([]byte, bool) {
	if e, ok := st.mem.get(key); ok {
		return e.v, !e.del
	}
	for i := len(st.segs) - 1; i >= 0; i-- {
		if v, del, ok, err := st.segs[i].get(key); err != nil || ok {
			return v, ok && !del
		}
	}
	return nil, false
}

// Get returns the newest value for key. The slice aliases shared
// immutable memory — the memtable or a segment block — and is
// read-only; it may be kept, and keeps that block alive while it is.
func (db *DB) Get(key string) ([]byte, bool) {
	db.reads.gets.Add(1)
	st := db.pin()
	defer releaseAll(st.segs)
	return st.get(key)
}

// Flush forces the memtable into a new segment (even a small one) and
// resets the WAL. A no-op on an empty memtable.
func (db *DB) Flush() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return errClosed
	}
	return db.flushLocked()
}

// flushLocked writes the memtable as the newest segment, commits the
// manifest, publishes the state with an empty memtable, resets the WAL
// and may kick off background compaction. The caller holds wmu.
func (db *DB) flushLocked() error {
	st := db.st
	if st.mem.keys == 0 {
		return nil
	}
	name := fmt.Sprintf("seg-%06d.seg", db.nextSeq)
	db.nextSeq++
	sw, err := newSegWriter(filepath.Join(db.dir, name), db.opts.BlockBytes)
	if err != nil {
		return err
	}
	it := &memIter{m: st.mem}
	for it.seek(""); it.next(); {
		if err := sw.add(it.key(), it.value(), it.deleted()); err != nil {
			sw.abort()
			return err
		}
	}
	seg, err := sw.finish(&db.reads)
	if err != nil {
		return err
	}
	segs := append(st.segs[:len(st.segs):len(st.segs)], seg)
	if err := db.writeManifest(segs); err != nil {
		// The segment is orphaned; the next Open deletes it and the WAL
		// still holds every batch.
		seg.release()
		return err
	}
	db.mu.Lock()
	db.st = &state{mem: emptyMemtable, segs: segs}
	db.stats.Flushes++
	db.mu.Unlock()
	if err := db.wal.reset(); err != nil {
		return err
	}
	db.maybeCompactLocked()
	return nil
}

// Ingest fills an empty DB with a whole key space in one step: emit hands
// put every key, in strictly increasing order, with its value, and they
// are written as one segment — no WAL record, no memtable. The segment is
// fsynced and then committed by the manifest, so the manifest's rename is
// the ingest's one commit point: a crash before it leaves the DB empty
// (Open deletes the orphan segment), after it the DB holds every key.
//
// put keeps neither slice past the call. It fails on a key that does not
// sort after the one before; Ingest then fails with that error, as it
// does when emit returns one or the DB holds anything (a memtable key or
// a segment), and leaves no file behind. Like a compaction's merge, the
// segment is written under no lock, so emit may take as long as it needs:
// reads see the DB empty until the commit and whole after it, and a write
// that lands first makes the commit fail.
func (db *DB) Ingest(emit func(put func(key, val []byte) error) error) error {
	db.wmu.Lock()
	err := db.ingestableLocked()
	seq := db.nextSeq
	db.nextSeq++
	db.wmu.Unlock()
	if err != nil {
		return err
	}
	sw, err := newSegWriter(filepath.Join(db.dir, fmt.Sprintf("seg-%06d.seg", seq)), db.opts.BlockBytes)
	if err != nil {
		return err
	}
	var prev []byte
	var perr error
	put := func(key, val []byte) error {
		if perr != nil {
			return perr
		}
		if sw.count > 0 && string(key) <= string(prev) {
			perr = fmt.Errorf("kv: Ingest: key %q does not sort after %q", key, prev)
			return perr
		}
		prev = append(prev[:0], key...)
		perr = sw.add(unsafe.String(unsafe.SliceData(key), len(key)), val, false)
		return perr
	}
	err = emit(put)
	if err == nil {
		err = perr
	}
	if err != nil || sw.count == 0 {
		sw.abort()
		return err
	}
	seg, err := sw.finish(&db.reads)
	if err != nil {
		return err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.ingestableLocked(); err != nil {
		seg.release()
		os.Remove(seg.path)
		return err
	}
	segs := []*segment{seg}
	if err := db.writeManifest(segs); err != nil {
		// The rename may have landed before the directory sync failed: the
		// empty list goes back before the segment goes, or the segment stays
		// for a manifest that may name it.
		seg.release()
		if db.writeManifest(nil) == nil {
			os.Remove(seg.path)
		}
		return err
	}
	db.mu.Lock()
	db.st = &state{mem: emptyMemtable, segs: segs}
	db.mu.Unlock()
	return nil
}

// ingestableLocked reports why the DB cannot take an ingest, or nil. The
// caller holds wmu.
func (db *DB) ingestableLocked() error {
	switch {
	case db.closed:
		return errClosed
	case db.st.mem.keys != 0 || len(db.st.segs) != 0:
		return fmt.Errorf("kv: Ingest requires an empty DB")
	}
	return nil
}

// writeManifest commits segs as the live segment list. The caller
// holds wmu.
func (db *DB) writeManifest(segs []*segment) error {
	m := manifest{NextSeq: db.nextSeq}
	for _, s := range segs {
		m.Segments = append(m.Segments, filepath.Base(s.path))
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(db.dir, manifestName), raw)
}

// atomicWrite replaces path with data via temp file + rename, fsyncing
// both the file and its directory so the replacement survives a crash.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a preceding rename/create is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// maybeCompactLocked starts a background full merge when the segment
// list has grown past MaxSegments and no merge is already running. The
// caller holds wmu, so the DB's own references keep the captured
// segments open while they are pinned.
func (db *DB) maybeCompactLocked() {
	if db.compacting || len(db.st.segs) <= db.opts.MaxSegments {
		return
	}
	captured := db.st.segs
	for _, s := range captured {
		s.acquire()
	}
	seq := db.nextSeq
	db.nextSeq++
	db.compacting = true
	db.compactWG.Add(1)
	go db.compact(captured, seq)
}

// compact full-merges the captured segments (every segment that existed
// at capture time) into one. Tombstones are dropped: nothing older than
// the captured set exists, so a deletion shadowing nothing is dead
// weight. Segments flushed while the merge runs are newer and stay
// above the merged result. The merge itself runs under no lock.
func (db *DB) compact(captured []*segment, seq uint64) {
	defer db.compactWG.Done()
	defer releaseAll(captured)
	name := fmt.Sprintf("seg-%06d.seg", seq)
	sw, err := newSegWriter(filepath.Join(db.dir, name), db.opts.BlockBytes)
	if err != nil {
		db.compactDone(nil, nil)
		return
	}
	it := newIter(nil, captured, &db.reads)
	var werr error
	for it.Seek(""); it.Valid(); it.Next() {
		if werr = sw.add(it.Key(), it.Value(), false); werr != nil {
			break
		}
	}
	// A segment that failed looks exhausted to the merge: the output would
	// be missing every key after the failure, and committing it would
	// delete the only copies.
	if werr == nil {
		werr = it.Err()
	}
	if werr != nil {
		sw.abort()
		db.compactDone(nil, nil)
		return
	}
	merged, err := sw.finish(&db.reads)
	if err != nil {
		db.compactDone(nil, nil)
		return
	}
	db.compactDone(captured, merged)
}

// compactDone commits the merged segment in place of the captured prefix
// of the segment list — manifest first, under the writer lock, then the
// published state — and retires the old files. A nil merged segment
// means the merge failed and the list is left alone.
func (db *DB) compactDone(captured []*segment, merged *segment) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	db.compacting = false
	if merged == nil {
		return
	}
	st := db.st
	segs := append([]*segment{merged}, st.segs[len(captured):]...)
	if err := db.writeManifest(segs); err != nil {
		// Drop the merged segment, keep serving the old list.
		merged.release()
		os.Remove(merged.path)
		return
	}
	db.mu.Lock()
	db.st = &state{mem: st.mem, segs: segs}
	db.stats.Compactions++
	db.mu.Unlock()
	for _, s := range captured {
		// Unlink first — open snapshots keep reading through their fd.
		os.Remove(s.path)
		s.release() // the DB's own reference
	}
}

// Close waits for compaction, syncs the WAL and releases every file.
// The memtable is not flushed: the WAL already holds it durably and
// replay restores it on the next Open.
func (db *DB) Close() error {
	db.wmu.Lock()
	if db.closed {
		db.wmu.Unlock()
		return nil
	}
	db.closed = true
	db.wmu.Unlock()
	db.compactWG.Wait()
	db.wmu.Lock()
	defer db.wmu.Unlock()
	err := db.wal.close()
	db.mu.Lock()
	segs := db.st.segs
	db.st = &state{mem: db.st.mem}
	db.mu.Unlock()
	releaseAll(segs)
	return err
}

// Stats returns a snapshot of the DB's counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.stats
	st.Segments = len(db.st.segs)
	st.SegmentBytes = 0
	for _, s := range db.st.segs {
		st.SegmentBytes += s.size
	}
	st.MemtableKeys = db.st.mem.keys
	st.MemtableBytes = db.st.mem.bytes
	st.BlockCacheHits = db.reads.cacheHits.Load()
	st.BlockCacheMisses = db.reads.cacheMisses.Load()
	st.BlockCacheBytes = db.reads.cacheBytes.Load()
	st.ReadErrors = db.reads.readErrors.Load()
	st.Seeks = db.reads.seeks.Load()
	st.SeeksInPlace = db.reads.seeksInPlace.Load()
	st.Gets = db.reads.gets.Load()
	return st
}

// Snap is a stable read view: one published state — the memtable as it
// was, by pointer — plus a reference on each of its segments. Release
// returns the references; a finalizer backstops forgotten snapshots.
type Snap struct {
	st   *state
	ctr  *readCounters // the DB's
	once sync.Once
}

// Snapshot captures a consistent view of the store. Readers on the
// snapshot never block, and never see writes applied after this call.
// It costs the same whatever the memtable holds.
func (db *DB) Snapshot() *Snap {
	sn := &Snap{st: db.pin(), ctr: &db.reads}
	setSnapFinalizer(sn)
	return sn
}

// Release returns the snapshot's segment references. Idempotent. The
// snapshot must not be read afterwards.
func (s *Snap) Release() {
	s.once.Do(func() {
		releaseAll(s.st.segs)
		s.st = releasedState
		clearSnapFinalizer(s)
	})
}

// Get returns the newest value for key visible in the snapshot. The
// slice is read-only and may be kept, as for DB.Get.
func (s *Snap) Get(key string) ([]byte, bool) { return s.st.get(key) }

// Scan streams live keys in [start, end) in lexicographic order; an
// empty end means unbounded. Returning false from fn stops the scan.
// Keys and values alias shared immutable memory (the memtable or a
// segment block): they are read-only, and one kept past the callback —
// or past Release — stays valid and keeps its block alive.
func (s *Snap) Scan(start, end string, fn func(k string, v []byte) bool) {
	it := s.Iter()
	for it.Seek(start); it.Valid(); it.Next() {
		if k := it.Key(); (end != "" && k >= end) || !fn(k, it.Value()) {
			return
		}
	}
}

// PrefixEnd returns the smallest key greater than every key with the
// given prefix, or "" when no such key exists (all-0xff prefixes).
func PrefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// --- batch encoding (shared by WAL records and replay) ---

// encodeBatch returns b's WAL record: walFrameHeader bytes that
// wal.append fills in, then the payload, in one allocation of its final
// length.
func encodeBatch(b *Batch) []byte {
	n := walFrameHeader + uvarintLen(len(b.ops))
	for _, o := range b.ops {
		n += 1 + uvarintLen(len(o.k)) + len(o.k)
		if !o.del {
			n += uvarintLen(len(o.v)) + len(o.v)
		}
	}
	buf := make([]byte, walFrameHeader, n)
	buf = binary.AppendUvarint(buf, uint64(len(b.ops)))
	for _, o := range b.ops {
		if o.del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(o.k)))
		buf = append(buf, o.k...)
		if !o.del {
			buf = binary.AppendUvarint(buf, uint64(len(o.v)))
			buf = append(buf, o.v...)
		}
	}
	return buf
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func decodeBatch(p []byte) (*Batch, error) {
	b := &Batch{}
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, fmt.Errorf("bad op count")
	}
	p = p[w:]
	for i := uint64(0); i < n; i++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("truncated op")
		}
		del := p[0] == 1
		p = p[1:]
		klen, w := binary.Uvarint(p)
		if w <= 0 || uint64(len(p)-w) < klen {
			return nil, fmt.Errorf("bad key length")
		}
		key := string(p[w : w+int(klen)])
		p = p[w+int(klen):]
		if del {
			b.Delete(key)
			continue
		}
		vlen, w := binary.Uvarint(p)
		if w <= 0 || uint64(len(p)-w) < vlen {
			return nil, fmt.Errorf("bad value length")
		}
		val := make([]byte, vlen)
		copy(val, p[w:w+int(vlen)])
		p = p[w+int(vlen):]
		b.Put(key, val)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return b, nil
}
