package disk

import (
	"fmt"
	"sync"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Reader is a stable ID-level view over one KV snapshot, implementing
// store.ReaderAPI. Iteration orders match the in-memory Reader exactly:
// every MatchIDs shape walks a permutation prefix whose big-endian key
// order is sorted-ID order.
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
	idle []*kv.Iter
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
	end := kv.PrefixEnd(prefix)
	for it.Seek(prefix); it.Valid(); it.Next() {
		k := it.Key()
		if end != "" && k >= end {
			break
		}
		if !fn(k) {
			return false
		}
	}
	return true
}

// scan is scanPrefix on a standing cursor taken off the idle list for the
// length of the scan. A cursor that met a read error is not put back.
func (r *Reader) scan(prefix string, fn func(k string) bool) bool {
	r.mu.Lock()
	var it *kv.Iter
	if n := len(r.idle); n > 0 {
		it, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if it == nil {
		it = r.snap.Iter()
	}
	done := scanPrefix(it, prefix, fn)
	if it.Err() == nil {
		r.mu.Lock()
		r.idle = append(r.idle, it)
		r.mu.Unlock()
	}
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

// scanIDs collects the last component of every key under a permutation
// prefix — sorted by construction.
func (r *Reader) scanIDs(prefix string) []store.ID {
	var out []store.ID
	r.scan(prefix, func(k string) bool {
		_, _, c := splitTriple(k)
		out = append(out, c)
		return true
	})
	return out
}

// Objects returns the sorted object IDs under (s, p).
func (r *Reader) Objects(s, p store.ID) []store.ID {
	return r.scanIDs(prefix2(kSPO, s, p))
}

// Subjects returns the sorted subject IDs under (p, o).
func (r *Reader) Subjects(p, o store.ID) []store.ID {
	return r.scanIDs(prefix2(kPOS, p, o))
}

// PredicatesBetween returns the sorted predicate IDs linking (s, o).
func (r *Reader) PredicatesBetween(s, o store.ID) []store.ID {
	return r.scanIDs(prefix2(kOSP, o, s))
}

// HasID reports whether the triple (s, p, o) is present.
func (r *Reader) HasID(s, p, o store.ID) bool {
	_, ok := r.snap.Get(tripleKey(kSPO, s, p, o))
	return ok
}

// scanTriples walks a permutation range, handing fn the three key
// components in permutation order; it reports run-to-completion.
func (r *Reader) scanTriples(prefix string, fn func(a, b, c store.ID) bool) bool {
	return r.scan(prefix, func(k string) bool { return fn(splitTriple(k)) })
}

// MatchIDs streams matching triples in the same deterministic order as
// the in-memory Reader: the sorted key order of the permutation the
// pattern shape selects.
func (r *Reader) MatchIDs(pat store.IDPattern, fn func(s, p, o store.ID) bool) bool {
	si, pi, oi := pat.S, pat.P, pat.O
	switch {
	case si != store.NoID && pi != store.NoID && oi != store.NoID:
		if r.HasID(si, pi, oi) {
			return fn(si, pi, oi)
		}
		return true
	case si != store.NoID && pi != store.NoID:
		return r.scanTriples(prefix2(kSPO, si, pi), func(_, _, o store.ID) bool {
			return fn(si, pi, o)
		})
	case pi != store.NoID && oi != store.NoID:
		return r.scanTriples(prefix2(kPOS, pi, oi), func(_, _, s store.ID) bool {
			return fn(s, pi, oi)
		})
	case si != store.NoID && oi != store.NoID:
		return r.scanTriples(prefix2(kOSP, oi, si), func(_, _, p store.ID) bool {
			return fn(si, p, oi)
		})
	case si != store.NoID:
		return r.scanTriples(prefix1(kSPO, si), func(_, p, o store.ID) bool {
			return fn(si, p, o)
		})
	case pi != store.NoID:
		return r.scanTriples(prefix1(kPOS, pi), func(_, o, s store.ID) bool {
			return fn(s, pi, o)
		})
	case oi != store.NoID:
		return r.scanTriples(prefix1(kOSP, oi), func(_, s, p store.ID) bool {
			return fn(s, p, oi)
		})
	default:
		return r.scanTriples(string([]byte{kSPO}), fn)
	}
}

// CardinalityIDs returns the exact number of matching triples. The
// all-wildcard and predicate-only shapes are O(1) from meta; the rest
// count one bounded key range.
func (r *Reader) CardinalityIDs(pat store.IDPattern) int {
	si, pi, oi := pat.S, pat.P, pat.O
	count := func(prefix string) (n int) {
		r.scan(prefix, func(string) bool { n++; return true })
		return n
	}
	switch {
	case si != store.NoID && pi != store.NoID && oi != store.NoID:
		if r.HasID(si, pi, oi) {
			return 1
		}
		return 0
	case si != store.NoID && pi != store.NoID:
		return count(prefix2(kSPO, si, pi))
	case pi != store.NoID && oi != store.NoID:
		return count(prefix2(kPOS, pi, oi))
	case si != store.NoID && oi != store.NoID:
		return count(prefix2(kOSP, oi, si))
	case si != store.NoID:
		return count(prefix1(kSPO, si))
	case pi != store.NoID:
		return r.meta.PredCount[pi]
	case oi != store.NoID:
		return count(prefix1(kOSP, oi))
	default:
		return r.meta.Len
	}
}

var _ store.ReaderAPI = (*Reader)(nil)
