// Package store implements an in-memory indexed RDF triple store.
//
// The store interns terms into dense integer IDs and maintains the three
// classic permutation indexes (SPO, POS, OSP) so that any triple pattern
// with at least one bound position is answered without a full scan. It
// also keeps the class/property statistics that the SPARQL evaluator uses
// for selectivity-based join ordering and that Index Extraction reads.
//
// Two read APIs are exposed. The term-level API (Match, Cardinality, …)
// materializes rdf.Term values and is convenient for presentation code.
// The ID-level API (Runs, CardinalityIDs, Reader) stays entirely in the
// dictionary-encoded space; the SPARQL execution engine runs its join
// loops on it so intermediate solutions never re-materialize terms.
//
// Everything a read touches is one immutable generation behind one
// pointer (see Reader); writes build the next generation copy-on-write
// (index.go) and Flush publishes it.
package store

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// ID is a dense term identifier assigned by the store dictionary.
type ID uint32

// NoID is returned for terms unknown to the dictionary.
const NoID = ID(0)

// Store is an indexed triple store. Every read — Snapshot, Reader and the
// term-level calls alike — is served from the last published generation
// and takes no lock a writer holds; Add and Remove change a private
// working generation that Flush publishes whole.
type Store struct {
	reqMu sync.Mutex // Backend.WriteLock

	// published is what readers see. A read that finds unpublished writes
	// publishes them first if no request holds reqMu (see Reader).
	published atomic.Pointer[Reader]
	dirty     atomic.Bool // work differs from published

	// The dictionary is one map for all generations: IDs are append-only,
	// so a generation sees exactly the terms with an ID up to its MaxID.
	// dictMu is held for one map operation at a time.
	dictMu sync.RWMutex
	dict   map[rdf.Term]ID

	// mu serializes writers; it is held for one Add, Remove or Flush.
	mu    sync.Mutex
	work  Reader // the working generation
	epoch uint64 // stamps what work allocates; bumped by every publish
}

// New returns an empty store.
func New() *Store {
	s := &Store{dict: make(map[rdf.Term]ID), epoch: 1}
	s.work.st = s
	g := s.work
	s.published.Store(&g)
	return s
}

// FromGraph builds a store containing all triples of g.
func FromGraph(g *rdf.Graph) *Store {
	s := New()
	for _, t := range g.Triples() {
		s.Add(t)
	}
	s.Flush()
	return s
}

// intern returns the ID for t, assigning a new one if needed. Only the
// writer changes the dictionary, so its own reads need no lock.
func (s *Store) intern(t rdf.Term) ID {
	if id, ok := s.dict[t]; ok {
		return id
	}
	// past every published length: readers never see the new element
	s.work.terms = append(s.work.terms, t)
	id := ID(len(s.work.terms))
	s.dictMu.Lock()
	s.dict[t] = id
	s.dictMu.Unlock()
	return id
}

// Lookup returns the ID of t, or NoID if the store has never seen it.
func (s *Store) Lookup(t rdf.Term) ID { return s.Reader().Lookup(t) }

// Term returns the term with the given ID. It panics on NoID or an ID the
// store never issued, which always indicates a programming error.
func (s *Store) Term(id ID) rdf.Term { return s.Reader().Term(id) }

// Add inserts a triple. It reports whether the triple was new. The triple
// is visible to readers once published: by Flush, or by the next read
// that finds the request lock free.
func (s *Store) Add(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &s.work
	si, pi, oi := s.intern(t.S), s.intern(t.P), s.intern(t.O)
	if w.HasID(si, pi, oi) {
		return false
	}
	w.spo.insert(s.epoch, si, pi, oi)
	w.pos.insert(s.epoch, pi, oi, si)
	w.osp.insert(s.epoch, oi, si, pi)
	w.n++
	s.dirty.Store(true)
	return true
}

// AddSPO inserts a triple given its components.
func (s *Store) AddSPO(sub, pred, obj rdf.Term) bool {
	return s.Add(rdf.Triple{S: sub, P: pred, O: obj})
}

// Remove deletes a triple. It reports whether the triple was present.
// All three permutation indexes shed the triple, and emptied posting
// lists and first-level keys are removed so the distinct subject /
// predicate / object counts stay exact under deletion. Term IDs are never
// reclaimed: ID assignment is append-only.
func (s *Store) Remove(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &s.work
	si, pi, oi := s.dict[t.S], s.dict[t.P], s.dict[t.O]
	if si == NoID || pi == NoID || oi == NoID || !w.HasID(si, pi, oi) {
		return false
	}
	w.spo.remove(s.epoch, si, pi, oi)
	w.pos.remove(s.epoch, pi, oi, si)
	w.osp.remove(s.epoch, oi, si, pi)
	w.n--
	s.dirty.Store(true)
	return true
}

// Flush implements Backend: it publishes the working generation. Whatever
// it shares with the previous one now belongs to readers, so the epoch
// moves on and the next write copies what it touches.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty.Load() {
		g := s.work
		s.published.Store(&g)
		s.epoch++
		s.dirty.Store(false)
	}
	return nil
}

// Reader returns the last published generation. Writes made outside a
// request (a loader's bare Adds) are published first when the request
// lock is free; while a request holds it they stay invisible until its
// Flush, and the call never waits for the request.
func (s *Store) Reader() *Reader {
	if s.dirty.Load() && s.reqMu.TryLock() {
		s.Flush()
		s.reqMu.Unlock()
	}
	return s.published.Load()
}

// Len returns the number of triples.
func (s *Store) Len() int { return s.Reader().Len() }

// TermCount returns the number of distinct terms in the dictionary.
func (s *Store) TermCount() int { return int(s.Reader().MaxID()) }

// Has reports whether the store contains the triple.
func (s *Store) Has(t rdf.Triple) bool {
	r := s.Reader()
	ip, ok := resolvePattern(r, Pattern(t))
	return ok && r.HasID(ip.S, ip.P, ip.O)
}

// Pattern is a triple pattern: a zero Term in any position is a wildcard.
type Pattern struct {
	S, P, O rdf.Term
}

// Match streams every triple matching the pattern to fn; returning false
// from fn stops the iteration early.
func (s *Store) Match(pat Pattern, fn func(rdf.Triple) bool) { MatchOn(s.Reader(), pat, fn) }

// MatchAll collects every triple matching the pattern.
func (s *Store) MatchAll(pat Pattern) []rdf.Triple {
	var out []rdf.Triple
	s.Match(pat, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (s *Store) Count(pat Pattern) int { return s.Cardinality(pat) }

// Cardinality returns how many triples match the pattern, from a list
// length or a pair count; the query planner orders joins by it.
func (s *Store) Cardinality(pat Pattern) int { return CardinalityOn(s.Reader(), pat) }

// Predicates returns the distinct predicates in the store, sorted.
func (s *Store) Predicates() []rdf.Term {
	r := s.Reader()
	out := make([]rdf.Term, 0, r.pos.n)
	r.pos.each(func(p ID, _ *postings) bool {
		out = append(out, r.Term(p))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Graph copies the full content into a Graph (mainly for serialization).
func (s *Store) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	s.Match(Pattern{}, func(t rdf.Triple) bool {
		g.Add(t)
		return true
	})
	return g
}
