package disk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Options tunes the underlying KV engine.
type Options struct {
	KV kv.Options
}

// meta is the store-level bookkeeping committed atomically with every
// batch (same WAL record), so a recovered store's counters always agree
// with its keys.
//
// ClassCount is the number of (?, rdf:type, C) triples per class C in
// use, and TypeID rdf:type's ID (NoID while the dictionary lacks it): the
// planner's count of every `?s a <C>` pattern. A record written before
// the class counts were kept has no class_count and decodes with a nil
// map, which is not an empty one: readers of such a commit count the key
// range, and the writer rebuilds the counts once (countClasses).
type meta struct {
	Len        int              `json:"len"`
	MaxID      store.ID         `json:"max_id"`
	PredCount  map[store.ID]int `json:"pred_count"`
	TypeID     store.ID         `json:"type_id,omitempty"`
	ClassCount map[store.ID]int `json:"class_count"`
}

// typeTerm is rdf:type, the predicate whose objects meta counts.
var typeTerm = rdf.NewIRI(rdf.RDFType)

// Store is a disk-backed triple store implementing store.Backend.
// Inserts and deletes accumulate in a pending batch and commit as one
// atomic WAL record on Flush (or when the batch grows past a
// threshold). Snapshot serves the last committed state: a reader sees
// whole batches only, never the staging area, and taking one neither
// writes nor waits for a write — it captures a KV snapshot and reads
// the statistics out of that same snapshot, where each batch put them,
// so the two agree by construction. A writer that must read its own
// staged writes calls Flush first; Match and Cardinality, which promise
// write-then-read, do that themselves.
type Store struct {
	db *kv.DB

	// reqMu is WriteLock: held by a caller across one request's
	// stage → Flush, so two requests never share the pending batch.
	// Match and Cardinality take it for their flush.
	reqMu sync.Mutex

	// mu guards the staging area below; readers never take it.
	mu sync.Mutex

	// meta is the writer's working copy: committed state plus the
	// pending batch's effect. Readers use committed instead.
	meta meta

	// Pending state since the last flush. pendingDict doubles as a
	// per-batch lookup cache for committed terms.
	batch          *kv.Batch
	pendingDict    map[rdf.Term]store.ID
	pendingTriples map[[3]store.ID]bool
	pendingDeletes map[[3]store.ID]bool
	pendingHash    map[uint64][]store.ID
	dirtyMeta      bool

	// committed caches the decoded form of the newest meta record a
	// reader has seen, keyed by its raw bytes.
	committed atomic.Pointer[decodedMeta]

	// cacheOwner tells this store's entries in the process-wide term
	// cache (termcache.go) from every other store's.
	cacheOwner uint32
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
}

// decodedMeta pairs a meta record's bytes with their decoded, shared,
// read-only form.
type decodedMeta struct {
	raw []byte
	m   *meta
}

var metaKey = string([]byte{kMeta})

// maxBatchOps bounds the pending batch (and with it the un-flushed
// memory footprint) between explicit Flush calls.
const maxBatchOps = 1 << 15

// Open opens (or creates) a disk store rooted at dir. Startup cost is
// the KV engine's: O(segment indexes + WAL tail), not O(corpus).
func Open(dir string, opts Options) (*Store, error) {
	db, err := kv.Open(dir, opts.KV)
	if err != nil {
		return nil, err
	}
	if terms.Load() == nil {
		terms.CompareAndSwap(nil, new(termCache))
	}
	s := &Store{db: db, cacheOwner: termCacheOwners.Add(1)}
	s.resetPending()
	if err := s.reloadMeta(); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// WriteLock returns the request lock: see store.Backend.
func (s *Store) WriteLock() sync.Locker { return &s.reqMu }

func (s *Store) resetPending() {
	s.batch = &kv.Batch{}
	s.pendingDict = make(map[rdf.Term]store.ID)
	s.pendingTriples = make(map[[3]store.ID]bool)
	s.pendingDeletes = make(map[[3]store.ID]bool)
	s.pendingHash = make(map[uint64][]store.ID)
	s.dirtyMeta = false
}

// Insert adds one triple, reporting whether it was new. The write lands
// in the pending batch; Flush commits it durably.
func (s *Store) Insert(t rdf.Triple) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	si, err := s.internLocked(t.S)
	if err != nil {
		return false, err
	}
	pi, err := s.internLocked(t.P)
	if err != nil {
		return false, err
	}
	oi, err := s.internLocked(t.O)
	if err != nil {
		return false, err
	}
	return s.insertIDsLocked(si, pi, oi)
}

// insertIDsLocked stages one triple already resolved to IDs, returning
// whether it was new.
func (s *Store) insertIDsLocked(si, pi, oi store.ID) (bool, error) {
	key := [3]store.ID{si, pi, oi}
	if s.pendingTriples[key] {
		return false, nil
	}
	if s.pendingDeletes[key] {
		// Deleted earlier in this batch; the re-insert's Puts land after
		// the staged Deletes, and the KV layer applies batch ops in
		// order, so the final state is present.
		delete(s.pendingDeletes, key)
	} else if _, ok := s.db.Get(permKey(kSPO, si, pi, oi)); ok {
		return false, nil
	}
	s.pendingTriples[key] = true
	s.batch.Put(permKey(kSPO, si, pi, oi), nil)
	s.batch.Put(permKey(kPOS, pi, oi, si), nil)
	s.batch.Put(permKey(kOSP, oi, si, pi), nil)
	s.meta.Len++
	s.meta.PredCount[pi]++
	if pi == s.meta.TypeID {
		s.meta.ClassCount[oi]++
	}
	s.dirtyMeta = true
	if s.batch.Len() >= maxBatchOps {
		if err := s.flushLocked(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Delete removes one triple, reporting whether it was present. Like
// Insert, the tombstones land in the pending batch and commit with the
// next Flush as part of the same atomic WAL record; the KV compaction
// drops them from the segment files later. Terms are never removed from
// the dictionary: IDs are append-only.
func (s *Store) Delete(t rdf.Triple) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	si := s.lookupLocked(t.S)
	if si == store.NoID {
		return false, nil
	}
	pi := s.lookupLocked(t.P)
	if pi == store.NoID {
		return false, nil
	}
	oi := s.lookupLocked(t.O)
	if oi == store.NoID {
		return false, nil
	}
	return s.deleteIDsLocked(si, pi, oi)
}

// lookupLocked resolves a term without interning it (deletes must not
// grow the dictionary).
func (s *Store) lookupLocked(t rdf.Term) store.ID {
	if id, ok := s.pendingDict[t]; ok {
		return id
	}
	id, _ := lookupEnc(encodeTerm(t), s.db.Get)
	if id != store.NoID {
		s.pendingDict[t] = id
	}
	return id
}

// deleteIDsLocked stages one triple deletion already resolved to IDs,
// returning whether the triple was present.
func (s *Store) deleteIDsLocked(si, pi, oi store.ID) (bool, error) {
	key := [3]store.ID{si, pi, oi}
	switch {
	case s.pendingTriples[key]:
		delete(s.pendingTriples, key)
	case s.pendingDeletes[key]:
		return false, nil
	default:
		if _, ok := s.db.Get(permKey(kSPO, si, pi, oi)); !ok {
			return false, nil
		}
	}
	s.pendingDeletes[key] = true
	s.batch.Delete(permKey(kSPO, si, pi, oi))
	s.batch.Delete(permKey(kPOS, pi, oi, si))
	s.batch.Delete(permKey(kOSP, oi, si, pi))
	s.meta.Len--
	decrement(s.meta.PredCount, pi)
	if pi == s.meta.TypeID {
		decrement(s.meta.ClassCount, oi)
	}
	s.dirtyMeta = true
	if s.batch.Len() >= maxBatchOps {
		if err := s.flushLocked(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// decrement lowers counts[id] by one; meta names only IDs in use.
func decrement(counts map[store.ID]int, id store.ID) {
	if n := counts[id] - 1; n <= 0 {
		delete(counts, id)
	} else {
		counts[id] = n
	}
}

// internLocked returns the ID for term t, assigning (and staging the
// dictionary writes for) a fresh one if the term is new.
func (s *Store) internLocked(t rdf.Term) (store.ID, error) {
	if id, ok := s.pendingDict[t]; ok {
		return id, nil
	}
	enc := encodeTerm(t)
	id, bucket := lookupEnc(enc, s.db.Get)
	if id != store.NoID {
		s.pendingDict[t] = id
		return id, nil
	}
	s.meta.MaxID++
	id = s.meta.MaxID
	s.pendingDict[t] = id
	if t == typeTerm {
		s.meta.TypeID = id
	}
	s.batch.Put(termKey(id), enc)
	dk, hashed := dictKey(enc)
	if !hashed {
		s.batch.Put(dk, encodeID(id))
	} else {
		h := hashEnc(enc)
		list, ok := s.pendingHash[h]
		if !ok {
			list = decodeIDList(bucket) // committed: lookupEnc read it
		}
		list = append(list, id)
		s.pendingHash[h] = list
		val := make([]byte, 0, 4*len(list))
		for _, lid := range list {
			val = append(val, encodeID(lid)...)
		}
		s.batch.Put(dk, val)
	}
	s.dirtyMeta = true
	return id, nil
}

// lookupEnc resolves an encoded term to its committed ID through any
// point-get function (the live DB or a snapshot). For an encoding over
// inlineMax it also returns the ID list it read under the hash key (nil
// when there is none), which a writer that interns the term appends to:
// a new long term costs one read of its key, not two.
func lookupEnc(enc []byte, get func(string) ([]byte, bool)) (id store.ID, bucket []byte) {
	dk, hashed := dictKey(enc)
	raw, ok := get(dk)
	if !ok {
		return store.NoID, nil
	}
	if !hashed {
		return decodeID(raw), nil
	}
	for _, id := range decodeIDList(raw) {
		if t, ok := get(termKey(id)); ok && string(t) == string(enc) {
			return id, raw
		}
	}
	return store.NoID, raw
}

// Flush commits the pending batch as one atomic, durable WAL record.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.batch.Len() == 0 && !s.dirtyMeta {
		return nil
	}
	raw, err := json.Marshal(&s.meta)
	if err != nil {
		return err
	}
	s.batch.Put(metaKey, raw)
	err = s.db.Apply(s.batch)
	s.resetPending()
	if err != nil {
		// The staging is gone, so the working meta must fall back to the
		// committed one; a meta record that was committed decodes.
		_ = s.reloadMeta()
	}
	return err
}

// reloadMeta sets the working meta to the committed one.
func (s *Store) reloadMeta() error {
	s.meta = meta{}
	if raw, ok := s.db.Get(metaKey); ok {
		if err := json.Unmarshal(raw, &s.meta); err != nil {
			return fmt.Errorf("disk: corrupt meta record: %w", err)
		}
	}
	if s.meta.PredCount == nil {
		s.meta.PredCount = make(map[store.ID]int)
	}
	if s.meta.ClassCount == nil {
		if err := s.countClasses(); err != nil {
			return fmt.Errorf("disk: counting classes: %w", err)
		}
	}
	return nil
}

// countClasses fills in the working meta's class counts from the
// committed keys: one walk of pos[rdf:type], for a record that predates
// them (or none). The next commit carries them; until then readers count
// the key range as that record's writer did.
func (s *Store) countClasses() error {
	m := &s.meta
	m.ClassCount = make(map[store.ID]int)
	r := s.snapshotReader()
	defer r.Release()
	if m.TypeID = r.Lookup(typeTerm); m.TypeID == store.NoID {
		return nil
	}
	return r.Runs(store.IDPattern{P: m.TypeID}, func(rn store.Run) bool {
		for i, class := range rn.Keys {
			m.ClassCount[class] += len(rn.List(i)) // a cut leaf splits a list
		}
		return true
	})
}

// Len returns the number of triples, including pending inserts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta.Len
}

// Close flushes pending writes and shuts the KV engine down.
func (s *Store) Close() error {
	s.mu.Lock()
	ferr := s.flushLocked()
	s.mu.Unlock()
	cerr := s.db.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Snapshot returns a stable ReaderAPI view of the last committed state.
// Staged writes are not in it until Flush. It takes no lock a writer
// holds across I/O and writes nothing. Call Release on the reader when
// done; a finalizer backstops readers that are simply dropped.
func (s *Store) Snapshot() store.ReaderAPI {
	return s.snapshotReader()
}

func (s *Store) snapshotReader() *Reader {
	snap := s.db.Snapshot()
	return &Reader{snap: snap, meta: s.metaOf(snap), st: s}
}

// metaOf returns the statistics committed with the newest batch in snap.
// Reading them from the snapshot itself — not from the Store — is what
// keeps a reader's MaxID and counts in step with the keys it can see.
func (s *Store) metaOf(snap *kv.Snap) *meta {
	raw, ok := snap.Get(metaKey)
	if !ok {
		return &meta{}
	}
	if c := s.committed.Load(); c != nil && bytes.Equal(c.raw, raw) {
		return c.m
	}
	m := new(meta)
	if err := json.Unmarshal(raw, m); err != nil {
		// Open decoded the record it found and every later one is this
		// process's own json.Marshal output.
		panic(fmt.Sprintf("disk: corrupt meta record: %v", err))
	}
	s.committed.Store(&decodedMeta{raw: raw, m: m})
	return m
}

// Match streams every triple matching the term-level pattern, in the
// same order as the in-memory tier, staged writes included.
func (s *Store) Match(pat store.Pattern, fn func(rdf.Triple) bool) {
	r := s.flushedReader()
	defer r.Release()
	store.MatchOn(r, pat, fn)
}

// Cardinality returns the number of triples matching the pattern,
// staged writes included.
func (s *Store) Cardinality(pat store.Pattern) int {
	r := s.flushedReader()
	defer r.Release()
	return store.CardinalityOn(r, pat)
}

// flushedReader commits the pending batch and snapshots the result. It
// takes the request lock for the flush, so a request another goroutine
// is still staging commits whole, by its own Flush, not half, by this
// one. A failed commit has discarded the staging and surfaces on the
// writer's own Flush; the reader then serves the committed state.
func (s *Store) flushedReader() *Reader {
	s.reqMu.Lock()
	_ = s.Flush()
	s.reqMu.Unlock()
	return s.snapshotReader()
}

// KVStats exposes the storage engine counters for the obs layer.
func (s *Store) KVStats() kv.Stats { return s.db.Stats() }

// CacheStats returns the term-cache hit/miss counters.
func (s *Store) CacheStats() (hits, misses uint64) {
	return s.cacheHits.Load(), s.cacheMiss.Load()
}

var _ store.Backend = (*Store)(nil)
