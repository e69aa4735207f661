package store

// This file is the ID-level read API: triple matching, cardinality and
// posting-list access over interned IDs, on the generation value the
// SPARQL execution engine runs its join loops on. None of it materializes
// rdf.Term values.

import (
	"slices"

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
	sorts []uint64   // sorts[id-1] is rdf.SortPrefix of terms[id-1]
	spo   index
	pos   index
	osp   index
	n     int
	st    *Store // for the dictionary
}

// Term returns the term for id. It panics on NoID or an ID above MaxID,
// which always indicates a programming error.
func (r *Reader) Term(id ID) rdf.Term { return r.terms[id-1] }

// Kind returns the kind of the term for id.
func (r *Reader) Kind(id ID) rdf.TermKind { return r.terms[id-1].Kind }

// SortPrefix returns rdf.SortPrefix of the term for id, computed once
// when the term was interned.
func (r *Reader) SortPrefix(id ID) uint64 { return r.sorts[id-1] }

// Lookup returns the ID of t, or NoID. A term interned after this
// generation was published has an ID above MaxID and is unknown to it.
func (r *Reader) Lookup(t rdf.Term) ID {
	r.st.dictMu.RLock()
	id, _ := r.st.dict.find(t, r.terms)
	r.st.dictMu.RUnlock()
	return id
}

// MaxID returns the highest ID the dictionary had issued; valid IDs are
// 1..MaxID.
func (r *Reader) MaxID() ID { return ID(len(r.terms)) }

// Len returns the number of triples.
func (r *Reader) Len() int { return r.n }

// HasID reports whether the triple (s, p, o) is in the store, by binary
// search on the sorted SPO posting list.
func (r *Reader) HasID(s, p, o ID) bool {
	return containsSorted(r.spo.lists(s, p), o)
}

// Runs hands fn the pattern's matches as leaves, in the sorted key order
// of the permutation index the pattern's shape selects: each run is one
// postings leaf, its keys, ends and lists passed with no copy. It never
// fails.
func (r *Reader) Runs(pat IDPattern, fn func(Run) bool) error {
	si, pi, oi := pat.S, pat.P, pat.O
	switch {
	case si != NoID && pi != NoID:
		key, list := r.spo.get(si).entry(pi)
		if oi != NoID { // a membership test: the run of o alone, or nothing
			i, ok := slices.BinarySearch(list, oi)
			list = list[i:min(i+1, len(list))]
			if !ok {
				list = nil
			}
		}
		if len(list) > 0 {
			fn(Run{S: si, Key: PosP, At: PosO, Keys: key, IDs: list})
		}
	case pi != NoID && oi != NoID:
		if key, list := r.pos.get(pi).entry(oi); len(list) > 0 {
			fn(Run{P: pi, Key: PosO, At: PosS, Keys: key, IDs: list})
		}
	case si != NoID && oi != NoID:
		if key, list := r.osp.get(oi).entry(si); len(list) > 0 {
			fn(Run{O: oi, Key: PosS, At: PosP, Keys: key, IDs: list})
		}
	case si != NoID:
		r.spo.get(si).runs(Run{S: si, Key: PosP, At: PosO}, fn)
	case pi != NoID:
		r.pos.get(pi).runs(Run{P: pi, Key: PosO, At: PosS}, fn)
	case oi != NoID:
		r.osp.get(oi).runs(Run{O: oi, Key: PosS, At: PosP}, fn)
	default:
		r.spo.each(func(s ID, ps *postings) bool {
			return ps.runs(Run{S: s, Key: PosP, At: PosO}, fn)
		})
	}
	return nil
}

// MatchIDs is EachTriple over the reader.
func (r *Reader) MatchIDs(pat IDPattern, fn func(s, p, o ID) bool) bool {
	return EachTriple(r, pat, fn)
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
	return EachTriple(s.Reader(), pat, fn)
}

// CardinalityIDs returns the exact match count of the ID pattern.
func (s *Store) CardinalityIDs(pat IDPattern) int { return s.Reader().CardinalityIDs(pat) }
