package disk

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Reader is a stable ID-level view over one KV snapshot, implementing
// store.ReaderAPI. Iteration orders match the in-memory Reader exactly:
// every Runs shape walks a permutation prefix whose big-endian key order
// is sorted-ID order.
type Reader struct {
	snap *kv.Snap
	meta *meta // shared with other readers of the same commit; read-only
	st   *Store

	// idle holds the standing cursors no scan is using, last returned
	// on top. A join scans in nested callbacks, and every depth probes in
	// ascending key order: taking and returning at the top hands each
	// depth the cursor its previous probe at that depth left standing,
	// which is what lets kv.Iter answer the re-seek in place. It is a
	// list behind a mutex and not a field because ReaderAPI promises
	// concurrent readers, and two goroutines must never share a cursor.
	mu   sync.Mutex
	idle []*cursor
}

// cursor is a standing kv.Iter, the buffer its scans gather runs in and
// the storage a probe builds its key prefix in.
type cursor struct {
	it  *kv.Iter
	ids []store.ID
	key [13]byte
}

// prefix is the key prefix of permutation table t over the bound IDs,
// built in the cursor's storage: a probe allocates no key. It is valid
// until the cursor's next prefix; kv.Iter.Seek keeps no reference to it.
func (c *cursor) prefix(t byte, ids ...store.ID) string {
	k := appendKey(c.key[:0], t, ids...)
	return unsafe.String(unsafe.SliceData(k), len(k))
}

// Release drops the standing cursors and the snapshot's segment
// references; the reader must not be used afterwards. Idempotent. The
// KV-layer finalizer covers readers that are simply dropped: a cursor
// keeps its snapshot reachable, so no file closes under one.
func (r *Reader) Release() {
	r.mu.Lock()
	r.idle = nil
	r.mu.Unlock()
	r.snap.Release()
}

// scanPrefix hands fn every live key under prefix, in key order, until
// fn returns false; it reports run-to-completion.
func scanPrefix(it *kv.Iter, prefix string, fn func(k string) bool) bool {
	for it.Seek(prefix); it.Valid(); it.Next() {
		k := it.Key()
		if !strings.HasPrefix(k, prefix) {
			break
		}
		if !fn(k) {
			return false
		}
	}
	return true
}

// take hands out a standing cursor, off the idle list or new, for the
// length of one scan.
func (r *Reader) take() *cursor {
	r.mu.Lock()
	var c *cursor
	if n := len(r.idle); n > 0 {
		c, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if c == nil {
		c = &cursor{it: r.snap.Iter()}
	}
	return c
}

// give ends a scan on c and returns the read error it met, if any. A
// cursor that met one is not put back.
func (r *Reader) give(c *cursor) error {
	if err := c.it.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	r.idle = append(r.idle, c)
	r.mu.Unlock()
	return nil
}

// scan is scanPrefix on a standing cursor, under the prefix of table t
// over ids; it reports run-to-completion.
func (r *Reader) scan(fn func(k string) bool, t byte, ids ...store.ID) bool {
	c := r.take()
	done := scanPrefix(c.it, c.prefix(t, ids...), fn)
	// Its callers (the posting accessors, CardinalityIDs) have no error
	// to return a read failure through (ROADMAP 6(c)); Runs has.
	_ = r.give(c)
	return done
}

// Term materializes the term for id, through the process-wide cache.
func (r *Reader) Term(id store.ID) rdf.Term {
	cache := terms.Load()
	if t, ok := cache.get(r.st.cacheOwner, id); ok {
		r.st.cacheHits.Add(1)
		return t
	}
	r.st.cacheMiss.Add(1)
	raw, ok := r.snap.Get(termKey(id))
	if !ok {
		panic(fmt.Sprintf("disk: Term(%d): unknown ID", id))
	}
	t, err := decodeTerm(raw)
	if err != nil {
		panic(fmt.Sprintf("disk: Term(%d): %v", id, err))
	}
	if len(raw) <= termCacheMaxEncoded {
		cache.put(r.st.cacheOwner, id, t)
	}
	return t
}

// SortPrefix returns rdf.SortPrefix of the term for id, derived from the
// term the cache holds: the format stores no prefix.
func (r *Reader) SortPrefix(id store.ID) uint64 { return rdf.SortPrefix(r.Term(id)) }

// Lookup returns the ID of t, or NoID.
func (r *Reader) Lookup(t rdf.Term) store.ID {
	return lookupEnc(encodeTerm(t), r.snap.Get)
}

// MaxID returns the highest issued ID.
func (r *Reader) MaxID() store.ID { return r.meta.MaxID }

// Len returns the number of triples.
func (r *Reader) Len() int { return r.meta.Len }

// DistinctSubjects returns the number of distinct subjects.
func (r *Reader) DistinctSubjects() int { return r.meta.DistinctS }

// DistinctPredicates returns the number of distinct predicates.
func (r *Reader) DistinctPredicates() int { return r.meta.DistinctP }

// DistinctObjects returns the number of distinct objects.
func (r *Reader) DistinctObjects() int { return r.meta.DistinctO }

// PredCount returns the number of triples with predicate p.
func (r *Reader) PredCount(p store.ID) int { return r.meta.PredCount[p] }

// scanIDs collects the last component of every key under the prefix of
// table t over two IDs — sorted by construction.
func (r *Reader) scanIDs(t byte, a, b store.ID) []store.ID {
	var out []store.ID
	r.scan(func(k string) bool {
		_, _, c := splitTriple(k)
		out = append(out, c)
		return true
	}, t, a, b)
	return out
}

// Objects returns the sorted object IDs under (s, p).
func (r *Reader) Objects(s, p store.ID) []store.ID {
	return r.scanIDs(kSPO, s, p)
}

// Subjects returns the sorted subject IDs under (p, o).
func (r *Reader) Subjects(p, o store.ID) []store.ID {
	return r.scanIDs(kPOS, p, o)
}

// PredicatesBetween returns the sorted predicate IDs linking (s, o).
func (r *Reader) PredicatesBetween(s, o store.ID) []store.ID {
	return r.scanIDs(kOSP, o, s)
}

// HasID reports whether the triple (s, p, o) is present.
func (r *Reader) HasID(s, p, o store.ID) bool {
	_, ok := r.snap.Get(permKey(kSPO, s, p, o))
	return ok
}

// runMax cuts a run. A run is gathered whole before the executor sees
// any of it, so the bound is how far past the row where a LIMIT stops a
// scan may read: at most runMax-1 keys.
const runMax = 64

// Runs hands fn the pattern's matches as runs in the same order as the
// in-memory Reader: consecutive keys of the permutation range the
// pattern's shape selects that share their first two IDs, gathered into
// the cursor's buffer and cut at runMax. The error is the scan's; the
// run it was gathering when a segment failed is not handed out.
func (r *Reader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	si, pi, oi := pat.S, pat.P, pat.O
	c := r.take()
	var prefix string
	switch {
	case si != store.NoID && pi != store.NoID && oi != store.NoID:
		prefix = c.prefix(kSPO, si, pi, oi)
	case si != store.NoID && pi != store.NoID:
		prefix = c.prefix(kSPO, si, pi)
	case pi != store.NoID && oi != store.NoID:
		prefix = c.prefix(kPOS, pi, oi)
	case si != store.NoID && oi != store.NoID:
		prefix = c.prefix(kOSP, oi, si)
	case si != store.NoID:
		prefix = c.prefix(kSPO, si)
	case pi != store.NoID:
		prefix = c.prefix(kPOS, pi)
	case oi != store.NoID:
		prefix = c.prefix(kOSP, oi)
	default:
		prefix = c.prefix(kSPO)
	}
	ids := c.ids[:0]
	var a, b store.ID
	emit := func() bool {
		rn := runOf(prefix[0], a, b)
		rn.IDs, ids = ids, ids[:0]
		return fn(rn)
	}
	done := scanPrefix(c.it, prefix, func(k string) bool {
		ka, kb, kc := splitTriple(k)
		if len(ids) > 0 && (ka != a || kb != b || len(ids) == runMax) && !emit() {
			return false
		}
		a, b = ka, kb
		ids = append(ids, kc)
		return true
	})
	if done && len(ids) > 0 && c.it.Err() == nil {
		emit()
	}
	c.ids = ids[:0]
	return r.give(c)
}

// runOf is the run under the two leading IDs of a key of permutation
// table t.
func runOf(t byte, a, b store.ID) store.Run {
	switch t {
	case kSPO:
		return store.Run{S: a, P: b, At: store.PosO}
	case kPOS:
		return store.Run{P: a, O: b, At: store.PosS}
	default:
		return store.Run{O: a, S: b, At: store.PosP}
	}
}

// MatchIDs is store.EachTriple over the reader.
func (r *Reader) MatchIDs(pat store.IDPattern, fn func(s, p, o store.ID) bool) bool {
	return store.EachTriple(r, pat, fn)
}

// CardinalityIDs returns the exact number of matching triples. The
// all-wildcard and predicate-only shapes are O(1) from meta; the rest
// count one bounded key range.
func (r *Reader) CardinalityIDs(pat store.IDPattern) int {
	si, pi, oi := pat.S, pat.P, pat.O
	count := func(t byte, ids ...store.ID) (n int) {
		r.scan(func(string) bool { n++; return true }, t, ids...)
		return n
	}
	switch {
	case si != store.NoID && pi != store.NoID && oi != store.NoID:
		if r.HasID(si, pi, oi) {
			return 1
		}
		return 0
	case si != store.NoID && pi != store.NoID:
		return count(kSPO, si, pi)
	case pi != store.NoID && oi != store.NoID:
		return count(kPOS, pi, oi)
	case si != store.NoID && oi != store.NoID:
		return count(kOSP, oi, si)
	case si != store.NoID:
		return count(kSPO, si)
	case pi != store.NoID:
		return r.meta.PredCount[pi]
	case oi != store.NoID:
		return count(kOSP, oi)
	default:
		return r.meta.Len
	}
}

var _ store.ReaderAPI = (*Reader)(nil)
