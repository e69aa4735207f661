package store

// This file is the ID-level read API: triple matching, cardinality and
// posting-list access over interned IDs, on the generation value the
// SPARQL execution engine runs its join loops on. None of it materializes
// rdf.Term values.

import (
	"repro/internal/rdf"
)

// IDPattern is a triple pattern over dictionary IDs. NoID in any position
// is a wildcard. IDs the store never issued simply match nothing.
type IDPattern struct {
	S, P, O ID
}

// Reader is one generation of a store: the terms, the three permutation
// indexes and the triple count as one Flush published them. It never
// changes, so any number of goroutines may read it for as long as they
// like while the store is written to; holding one keeps alive only the
// memory later generations no longer share with it.
type Reader struct {
	terms []rdf.Term // terms[id-1] is the term for id
	spo   index
	pos   index
	osp   index
	n     int
	st    *Store // for the dictionary
}

// Term returns the term for id. It panics on NoID or an ID above MaxID,
// which always indicates a programming error.
func (r *Reader) Term(id ID) rdf.Term { return r.terms[id-1] }

// Lookup returns the ID of t, or NoID. A term interned after this
// generation was published has an ID above MaxID and is unknown to it.
func (r *Reader) Lookup(t rdf.Term) ID {
	r.st.dictMu.RLock()
	id := r.st.dict[t]
	r.st.dictMu.RUnlock()
	if id > r.MaxID() {
		return NoID
	}
	return id
}

// MaxID returns the highest ID the dictionary had issued; valid IDs are
// 1..MaxID.
func (r *Reader) MaxID() ID { return ID(len(r.terms)) }

// Len returns the number of triples.
func (r *Reader) Len() int { return r.n }

// DistinctSubjects returns the number of distinct subjects.
func (r *Reader) DistinctSubjects() int { return r.spo.n }

// DistinctPredicates returns the number of distinct predicates.
func (r *Reader) DistinctPredicates() int { return r.pos.n }

// DistinctObjects returns the number of distinct objects.
func (r *Reader) DistinctObjects() int { return r.osp.n }

// PredCount returns the number of triples with predicate p.
func (r *Reader) PredCount(p ID) int { return r.pos.get(p).size() }

// Objects returns the sorted object IDs under (s, p). The slice is shared
// with the index and must not be modified.
func (r *Reader) Objects(s, p ID) []ID { return r.spo.lists(s, p) }

// Subjects returns the sorted subject IDs under (p, o). The slice is
// shared with the index and must not be modified.
func (r *Reader) Subjects(p, o ID) []ID { return r.pos.lists(p, o) }

// PredicatesBetween returns the sorted predicate IDs linking (s, o). The
// slice is shared with the index and must not be modified.
func (r *Reader) PredicatesBetween(s, o ID) []ID { return r.osp.lists(o, s) }

// HasID reports whether the triple (s, p, o) is in the store, by binary
// search on the sorted SPO posting list.
func (r *Reader) HasID(s, p, o ID) bool {
	return containsSorted(r.spo.lists(s, p), o)
}

// MatchIDs streams every triple matching the pattern to fn as (subject,
// predicate, object) IDs. Returning false from fn stops the iteration;
// MatchIDs reports whether the iteration ran to completion. Iteration
// order is deterministic: the sorted key order of the chosen index.
func (r *Reader) MatchIDs(pat IDPattern, fn func(s, p, o ID) bool) bool {
	si, pi, oi := pat.S, pat.P, pat.O
	switch {
	case si != NoID && pi != NoID && oi != NoID:
		if r.HasID(si, pi, oi) {
			return fn(si, pi, oi)
		}
		return true
	case si != NoID && pi != NoID:
		for _, o := range r.spo.lists(si, pi) {
			if !fn(si, pi, o) {
				return false
			}
		}
		return true
	case pi != NoID && oi != NoID:
		for _, sub := range r.pos.lists(pi, oi) {
			if !fn(sub, pi, oi) {
				return false
			}
		}
		return true
	case si != NoID && oi != NoID:
		for _, p := range r.osp.lists(oi, si) {
			if !fn(si, p, oi) {
				return false
			}
		}
		return true
	case si != NoID:
		return r.spo.get(si).eachLeaf(func(leaf *postings) bool {
			return leaf.walk(func(p, o ID) bool { return fn(si, p, o) })
		})
	case pi != NoID:
		return r.pos.get(pi).eachLeaf(func(leaf *postings) bool {
			return leaf.walk(func(o, sub ID) bool { return fn(sub, pi, o) })
		})
	case oi != NoID:
		return r.osp.get(oi).eachLeaf(func(leaf *postings) bool {
			return leaf.walk(func(sub, p ID) bool { return fn(sub, p, oi) })
		})
	default:
		return r.spo.each(func(sub ID, ps *postings) bool {
			return ps.eachLeaf(func(leaf *postings) bool {
				return leaf.walk(func(p, o ID) bool { return fn(sub, p, o) })
			})
		})
	}
}

// CardinalityIDs returns how many triples match the pattern. It is exact
// for every shape and never scans a posting list: every shape is answered
// from a list length or a pair count.
func (r *Reader) CardinalityIDs(pat IDPattern) int {
	si, pi, oi := pat.S, pat.P, pat.O
	switch {
	case si != NoID && pi != NoID && oi != NoID:
		if r.HasID(si, pi, oi) {
			return 1
		}
		return 0
	case si != NoID && pi != NoID:
		return len(r.spo.lists(si, pi))
	case pi != NoID && oi != NoID:
		return len(r.pos.lists(pi, oi))
	case si != NoID && oi != NoID:
		return len(r.osp.lists(oi, si))
	case si != NoID:
		return r.spo.get(si).size()
	case pi != NoID:
		return r.pos.get(pi).size()
	case oi != NoID:
		return r.osp.get(oi).size()
	default:
		return r.n
	}
}

// MatchIDs streams matching triples as IDs from the last published
// generation. For repeated calls, prefer taking a Reader once.
func (s *Store) MatchIDs(pat IDPattern, fn func(sub, pred, obj ID) bool) bool {
	return s.Reader().MatchIDs(pat, fn)
}

// CardinalityIDs returns the exact match count of the ID pattern.
func (s *Store) CardinalityIDs(pat IDPattern) int { return s.Reader().CardinalityIDs(pat) }
