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
// The ID-level API (MatchIDs, CardinalityIDs, Reader) stays entirely in
// the dictionary-encoded space; the SPARQL execution engine runs its join
// loops on it so intermediate solutions never re-materialize terms.
package store

import (
	"sort"
	"sync"

	"repro/internal/rdf"
)

// ID is a dense term identifier assigned by the store dictionary.
type ID uint32

// NoID is returned for terms unknown to the dictionary.
const NoID = ID(0)

// Store is an indexed triple store. It is safe for concurrent readers;
// writes must not race with reads (the loaders in this repository build a
// store fully before sharing it, matching how H-BOLD snapshots endpoints).
type Store struct {
	mu    sync.RWMutex
	reqMu sync.Mutex // Backend.WriteLock

	dict   map[rdf.Term]ID
	terms  []rdf.Term // terms[id-1] is the term for id
	nTrips int

	spo index
	pos index
	osp index

	// statistics
	predCount map[ID]int // triples per predicate
}

// index is a two-level permutation index: first key → second key → sorted
// set of third keys. Both key levels keep a sorted slice of their keys,
// maintained at insert time, so iteration is deterministic and merge-style
// scans never need to sort on the read path.
type index struct {
	m    map[ID]*postings
	keys []ID // sorted first-level keys
}

// postings is the second level of an index: second key → sorted third-key
// list, plus the sorted second-level keys.
type postings struct {
	m    map[ID][]ID
	keys []ID // sorted second-level keys
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:      make(map[rdf.Term]ID),
		spo:       index{m: make(map[ID]*postings)},
		pos:       index{m: make(map[ID]*postings)},
		osp:       index{m: make(map[ID]*postings)},
		predCount: make(map[ID]int),
	}
}

// FromGraph builds a store containing all triples of g.
func FromGraph(g *rdf.Graph) *Store {
	s := New()
	for _, t := range g.Triples() {
		s.Add(t)
	}
	return s
}

// intern returns the ID for t, assigning a new one if needed.
func (s *Store) intern(t rdf.Term) ID {
	if id, ok := s.dict[t]; ok {
		return id
	}
	s.terms = append(s.terms, t)
	id := ID(len(s.terms))
	s.dict[t] = id
	return id
}

// Lookup returns the ID of t, or NoID if the store has never seen it.
func (s *Store) Lookup(t rdf.Term) ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dict[t]
}

// Term returns the term with the given ID. It panics on NoID or an ID the
// store never issued, which always indicates a programming error.
func (s *Store) Term(id ID) rdf.Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.terms[id-1]
}

// Add inserts a triple. It reports whether the triple was new.
func (s *Store) Add(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	si, pi, oi := s.intern(t.S), s.intern(t.P), s.intern(t.O)
	if !s.spo.insert(si, pi, oi) {
		return false
	}
	s.pos.insert(pi, oi, si)
	s.osp.insert(oi, si, pi)
	s.nTrips++
	s.predCount[pi]++
	return true
}

// AddSPO inserts a triple given its components.
func (s *Store) AddSPO(sub, pred, obj rdf.Term) bool {
	return s.Add(rdf.Triple{S: sub, P: pred, O: obj})
}

// Remove deletes a triple. It reports whether the triple was present.
// All three permutation indexes shed the triple, and emptied posting
// lists and first-level keys are removed so the distinct subject /
// predicate / object counts (derived from the index key sets) stay
// exact under deletion. Term IDs are never reclaimed: the dictionary
// keeps interned terms so concurrently-held Readers stay valid and ID
// assignment remains append-only.
func (s *Store) Remove(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	si, pi, oi := s.dict[t.S], s.dict[t.P], s.dict[t.O]
	if si == NoID || pi == NoID || oi == NoID {
		return false
	}
	if !s.spo.remove(si, pi, oi) {
		return false
	}
	s.pos.remove(pi, oi, si)
	s.osp.remove(oi, si, pi)
	s.nTrips--
	if s.predCount[pi]--; s.predCount[pi] <= 0 {
		delete(s.predCount, pi)
	}
	return true
}

// insert adds c into the sorted set ix[a][b], reporting whether it was new.
func (ix *index) insert(a, b, c ID) bool {
	p := ix.m[a]
	if p == nil {
		p = &postings{m: make(map[ID][]ID, 2)}
		ix.m[a] = p
		insertSortedID(&ix.keys, a)
	}
	list, ok := p.m[b]
	if !ok {
		insertSortedID(&p.keys, b)
	}
	i := sort.Search(len(list), func(k int) bool { return list[k] >= c })
	if i < len(list) && list[i] == c {
		return false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = c
	p.m[b] = list
	return true
}

// remove deletes c from the sorted set ix[a][b], reporting whether it was
// present. Emptied third-key lists drop their second-level key, and an
// emptied postings drops its first-level key, so the key sets always name
// exactly the values that still occur in that index position.
func (ix *index) remove(a, b, c ID) bool {
	p := ix.m[a]
	if p == nil {
		return false
	}
	list, ok := p.m[b]
	if !ok {
		return false
	}
	i := sort.Search(len(list), func(k int) bool { return list[k] >= c })
	if i >= len(list) || list[i] != c {
		return false
	}
	if len(list) == 1 {
		delete(p.m, b)
		removeSortedID(&p.keys, b)
	} else {
		copy(list[i:], list[i+1:])
		p.m[b] = list[:len(list)-1]
	}
	if len(p.m) == 0 {
		delete(ix.m, a)
		removeSortedID(&ix.keys, a)
	}
	return true
}

// removeSortedID deletes v from the sorted slice. The caller guarantees v
// is present.
func removeSortedID(s *[]ID, v ID) {
	l := *s
	i := sort.Search(len(l), func(k int) bool { return l[k] >= v })
	copy(l[i:], l[i+1:])
	*s = l[:len(l)-1]
}

// insertSortedID inserts v into the sorted slice, keeping it sorted. The
// caller guarantees v is not already present. IDs are handed out in
// insertion order, so the append-at-end fast path dominates on bulk loads.
func insertSortedID(s *[]ID, v ID) {
	l := *s
	if n := len(l); n == 0 || l[n-1] < v {
		*s = append(l, v)
		return
	}
	i := sort.Search(len(l), func(k int) bool { return l[k] >= v })
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = v
	*s = l
}

// lists returns the sorted third-key list under (a, b), or nil.
func (ix *index) lists(a, b ID) []ID {
	p := ix.m[a]
	if p == nil {
		return nil
	}
	return p.m[b]
}

// iterate walks the postings in sorted second-key order; returning false
// from fn stops early (and propagates the false).
func (p *postings) iterate(fn func(b, c ID) bool) bool {
	if p == nil {
		return true
	}
	for _, b := range p.keys {
		for _, c := range p.m[b] {
			if !fn(b, c) {
				return false
			}
		}
	}
	return true
}

// size returns the number of (b, c) pairs in the postings.
func (p *postings) size() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, l := range p.m {
		n += len(l)
	}
	return n
}

// Len returns the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nTrips
}

// TermCount returns the number of distinct terms in the dictionary.
func (s *Store) TermCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.terms)
}

// Has reports whether the store contains the triple.
func (s *Store) Has(t rdf.Triple) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si, pi, oi := s.dict[t.S], s.dict[t.P], s.dict[t.O]
	if si == NoID || pi == NoID || oi == NoID {
		return false
	}
	return containsSorted(s.spo.lists(si, pi), oi)
}

// containsSorted reports whether the sorted list contains v.
func containsSorted(list []ID, v ID) bool {
	i := sort.Search(len(list), func(k int) bool { return list[k] >= v })
	return i < len(list) && list[i] == v
}

// Pattern is a triple pattern: a zero Term in any position is a wildcard.
type Pattern struct {
	S, P, O rdf.Term
}

// Match streams every triple matching the pattern to fn; returning false
// from fn stops the iteration early.
func (s *Store) Match(pat Pattern, fn func(rdf.Triple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	var ip IDPattern
	if !pat.S.IsZero() {
		if ip.S = s.dict[pat.S]; ip.S == NoID {
			return
		}
	}
	if !pat.P.IsZero() {
		if ip.P = s.dict[pat.P]; ip.P == NoID {
			return
		}
	}
	if !pat.O.IsZero() {
		if ip.O = s.dict[pat.O]; ip.O == NoID {
			return
		}
	}
	r := s.reader()
	r.MatchIDs(ip, func(a, b, c ID) bool {
		return fn(rdf.Triple{S: s.terms[a-1], P: s.terms[b-1], O: s.terms[c-1]})
	})
}

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
func (s *Store) Count(pat Pattern) int {
	n := 0
	s.Match(pat, func(rdf.Triple) bool {
		n++
		return true
	})
	return n
}

// Cardinality estimates how many triples match the pattern; used by the
// query planner for join ordering. It is exact for the common shapes.
func (s *Store) Cardinality(pat Pattern) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ip IDPattern
	if !pat.S.IsZero() {
		if ip.S = s.dict[pat.S]; ip.S == NoID {
			return 0
		}
	}
	if !pat.P.IsZero() {
		if ip.P = s.dict[pat.P]; ip.P == NoID {
			return 0
		}
	}
	if !pat.O.IsZero() {
		if ip.O = s.dict[pat.O]; ip.O == NoID {
			return 0
		}
	}
	r := s.reader()
	return r.CardinalityIDs(ip)
}

// Predicates returns the distinct predicates in the store, sorted.
func (s *Store) Predicates() []rdf.Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rdf.Term, 0, len(s.predCount))
	for id := range s.predCount {
		out = append(out, s.terms[id-1])
	}
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
