package store

// The storage-engine seam. PR 3 made the SPARQL engines run on an
// ID-level read API; this file names that API as interfaces so an
// alternative storage tier (the disk-backed store in
// internal/store/disk) can slot in under the compiled-plan executor,
// the EXPLAIN profiler and the streaming operators without those
// layers changing. The in-memory *Store is the fast tier and the
// reference implementation of every interface here.

import (
	"sync"

	"repro/internal/rdf"
)

// ReaderAPI is the ID-level read seam every storage tier implements: a
// stable, read-only view of one store state. *Reader (the in-memory
// tier) and disk.Reader (the persistent tier) are the implementations.
// Implementations must be safe for concurrent readers; Runs iteration
// order is part of the contract — the sorted key order of the
// permutation index the pattern shape selects — so the two tiers
// enumerate identical corpora identically.
type ReaderAPI interface {
	// Term materializes the term for a store-issued ID. It panics on
	// NoID or an ID the tier never issued (a programming error).
	Term(id ID) rdf.Term
	// SortPrefix returns rdf.SortPrefix(Term(id)) — the memory tier
	// keeps it per term, the disk tier derives it from the cached term —
	// so a bound on ORDER BY keys is tested without a term in hand.
	SortPrefix(id ID) uint64
	// Lookup returns the ID of t, or NoID.
	Lookup(t rdf.Term) ID
	// MaxID returns the highest issued ID; valid IDs are 1..MaxID.
	MaxID() ID
	// Len returns the number of triples.
	Len() int
	// DistinctSubjects returns the number of distinct subjects.
	DistinctSubjects() int
	// DistinctPredicates returns the number of distinct predicates.
	DistinctPredicates() int
	// DistinctObjects returns the number of distinct objects.
	DistinctObjects() int
	// PredCount returns the number of triples with predicate p.
	PredCount(p ID) int
	// Objects returns the sorted object IDs under (s, p); the slice
	// must not be modified.
	Objects(s, p ID) []ID
	// Subjects returns the sorted subject IDs under (p, o); the slice
	// must not be modified.
	Subjects(p, o ID) []ID
	// PredicatesBetween returns the sorted predicate IDs linking
	// (s, o); the slice must not be modified.
	PredicatesBetween(s, o ID) []ID
	// HasID reports whether the triple (s, p, o) is present.
	HasID(s, p, o ID) bool
	// Runs hands fn the pattern's matches as runs (see Run), in the
	// index order of the pattern shape; returning false from fn stops
	// early. The error is the scan's: a tier that could not read part
	// of the range says so rather than return a short answer.
	Runs(pat IDPattern, fn func(Run) bool) error
	// MatchIDs is EachTriple over the view, and every tier implements
	// it by calling EachTriple: Runs is the one scan. It stays on the
	// interface because the benchmark harness (bench/layers.go) times
	// per-triple scans of a disk snapshot through it.
	MatchIDs(pat IDPattern, fn func(s, p, o ID) bool) bool
	// CardinalityIDs returns the exact number of triples matching the
	// pattern.
	CardinalityIDs(pat IDPattern) int
}

// Pos names a position of a triple.
type Pos uint8

const (
	PosS Pos = iota
	PosP
	PosO
)

// A Run is the matches of a pattern that agree on every position but the
// last key of the permutation index the pattern's shape selects: the
// triple (S, P, O) with position At taking each of IDs in turn, and NoID
// in At itself. IDs is sorted, non-empty and valid for the call only: the
// memory tier passes a postings list, the disk tier a reused buffer.
type Run struct {
	S, P, O ID
	At      Pos
	IDs     []ID
}

// pos returns the run's ID in position at.
func (rn *Run) pos(at Pos) *ID {
	switch at {
	case PosS:
		return &rn.S
	case PosP:
		return &rn.P
	}
	return &rn.O
}

// EachTriple hands fn, one triple at a time, every match Runs finds for
// the pattern, in the same order; returning false from fn stops early.
// It reports whether the iteration ran to completion: false when fn
// stopped it or the scan failed. It is the one per-triple reader.
func EachTriple(r ReaderAPI, pat IDPattern, fn func(s, p, o ID) bool) bool {
	done := true
	err := r.Runs(pat, func(rn Run) bool {
		at := rn.pos(rn.At)
		for _, id := range rn.IDs {
			*at = id
			if !fn(rn.S, rn.P, rn.O) {
				done = false
				return false
			}
		}
		return true
	})
	return done && err == nil
}

// Queryable is the surface the SPARQL engines execute against: an
// ID-level snapshot for the compiled-plan paths plus the term-level
// reads the reference evaluator and presentation code use. Both storage
// tiers implement it, which is what lets sparql.Exec / Query.Stream /
// Query.Explain run unmodified over memory or disk.
type Queryable interface {
	// Snapshot returns a stable read view of the tier's last committed
	// state, and the rule is the same on both tiers: a view holds whole
	// Flushes only — never part of one, never writes staged since the
	// last — it does not change while later writes land, and taking one
	// never waits for a writer or for a request that holds WriteLock.
	// Each query execution takes one snapshot, so it runs over one
	// consistent corpus however long it streams. (Writes made to the
	// memory tier outside any request — a loader's bare Adds — are
	// committed by the next read that finds WriteLock free.) A view that
	// also has a Release() method holds resources until it is called.
	Snapshot() ReaderAPI
	// Match streams every triple matching the term-level pattern.
	Match(pat Pattern, fn func(rdf.Triple) bool)
	// Cardinality returns the number of triples matching the pattern.
	Cardinality(pat Pattern) int
}

// Backend is a writable storage tier: Queryable plus the insert/flush
// lifecycle the extraction path drives. The in-memory *Store implements
// it with nothing to make durable; disk.Store implements it over the WAL.
type Backend interface {
	Queryable
	// Insert adds one triple, reporting whether it was new. Writable
	// tiers may buffer; Flush makes every prior Insert durable.
	Insert(t rdf.Triple) (bool, error)
	// Delete removes one triple, reporting whether it was present.
	// Like Insert it may buffer; Flush commits the whole pending
	// insert+delete batch atomically on persistent tiers.
	Delete(t rdf.Triple) (bool, error)
	// Len returns the number of triples: the disk tier counts writes
	// staged since the last Flush, the memory tier answers from committed
	// state like every other read.
	Len() int
	// Flush commits and (for persistent tiers) makes durable every
	// buffered insert.
	Flush() error
	// WriteLock returns the tier's request lock. Insert, Delete and
	// Flush do not take it; a caller whose request is several of them
	// holds it from its first write to its Flush, so that concurrent
	// requests never interleave in one pending batch, and readers never
	// see part of it. Match and Cardinality answer from committed state
	// like Snapshot; the disk tier's take this lock to commit staged
	// writes first, so a holder reads through Snapshot instead.
	WriteLock() sync.Locker
	// Close flushes and releases the tier's resources.
	Close() error
}

// Snapshot implements Queryable for the in-memory tier.
func (s *Store) Snapshot() ReaderAPI { return s.Reader() }

// Insert implements Backend for the in-memory tier.
func (s *Store) Insert(t rdf.Triple) (bool, error) { return s.Add(t), nil }

// Delete implements Backend for the in-memory tier.
func (s *Store) Delete(t rdf.Triple) (bool, error) { return s.Remove(t), nil }

// WriteLock implements Backend.
func (s *Store) WriteLock() sync.Locker { return &s.reqMu }

// Close implements Backend; the in-memory tier holds no resources.
func (s *Store) Close() error { return nil }

// MatchOn answers a term-level Match over any ReaderAPI: the pattern's
// terms are resolved through the tier's dictionary (an unknown term
// matches nothing) and every matching triple is re-materialized for fn.
// Returning false from fn stops the iteration early.
func MatchOn(r ReaderAPI, pat Pattern, fn func(rdf.Triple) bool) {
	ip, ok := resolvePattern(r, pat)
	if !ok {
		return
	}
	EachTriple(r, ip, func(a, b, c ID) bool {
		return fn(rdf.Triple{S: r.Term(a), P: r.Term(b), O: r.Term(c)})
	})
}

// CardinalityOn answers a term-level Cardinality over any ReaderAPI.
func CardinalityOn(r ReaderAPI, pat Pattern) int {
	ip, ok := resolvePattern(r, pat)
	if !ok {
		return 0
	}
	return r.CardinalityIDs(ip)
}

// resolvePattern interns the pattern's concrete terms; ok is false when
// a concrete term is unknown to the dictionary (nothing can match).
func resolvePattern(r ReaderAPI, pat Pattern) (IDPattern, bool) {
	var ip IDPattern
	if !pat.S.IsZero() {
		if ip.S = r.Lookup(pat.S); ip.S == NoID {
			return ip, false
		}
	}
	if !pat.P.IsZero() {
		if ip.P = r.Lookup(pat.P); ip.P == NoID {
			return ip, false
		}
	}
	if !pat.O.IsZero() {
		if ip.O = r.Lookup(pat.O); ip.O == NoID {
			return ip, false
		}
	}
	return ip, true
}
