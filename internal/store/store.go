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
// (index.go) and Flush publishes it. A load builds a new store's first
// generation in one sorted pass instead (Builder, build.go).
package store

import (
	"hash/maphash"
	"math/bits"
	"sort"
	"strings"
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

	// The dictionary is one table for all generations: IDs are
	// append-only, so a generation sees exactly the terms with an ID up to
	// its MaxID. dictMu is held for one probe or one insert at a time.
	dictMu sync.RWMutex
	dict   dict
	// slab is where intern copies a new term's strings: one allocation
	// for many of them, appended to and never rewritten (see copyString).
	slab strings.Builder

	// mu serializes writers; it is held for one Add, Remove or Flush.
	mu    sync.Mutex
	work  Reader // the working generation
	epoch uint64 // stamps what work allocates; bumped by every publish
}

// New returns an empty store.
func New() *Store {
	s := &Store{dict: newDict(), epoch: 1}
	s.work.st = s
	g := s.work
	s.published.Store(&g)
	return s
}

// FromGraph builds a store containing all triples of g.
func FromGraph(g *rdf.Graph) *Store {
	b := NewBuilder()
	for _, t := range g.Triples() {
		b.Add(t)
	}
	return b.Store()
}

// intern returns the ID for t, assigning a new one if needed. Only the
// writer changes the dictionary, so its own probes need no lock.
//
// A new term is stored with strings of its own. A caller's strings may be
// slices of something much larger — a parsed document (turtle.Each hands
// out substrings of it) or a query text — that the dictionary would
// otherwise keep reachable for the store's lifetime. A term the
// dictionary already knows costs one probe and no copy.
func (s *Store) intern(t rdf.Term) ID {
	id, slot := s.dict.find(t, s.work.terms)
	if id != NoID {
		return id
	}
	t.Value = s.copyString(t.Value)
	t.Datatype = s.copyString(t.Datatype)
	t.Lang = s.copyString(t.Lang)
	// past every published length: readers never see the new elements
	s.work.terms = append(s.work.terms, t)
	s.work.sorts = append(s.work.sorts, rdf.SortPrefix(t))
	id = ID(len(s.work.terms))
	if 2*int(id) <= len(s.dict.slots) {
		s.dictMu.Lock()
		s.dict.slots[slot] = id
		s.dictMu.Unlock()
		return id
	}
	// Over half full: the new table is built aside, from the term table,
	// and swapped in.
	slots := s.dict.rehash(s.work.terms, 2*len(s.dict.slots))
	s.dictMu.Lock()
	s.dict.slots = slots
	s.dictMu.Unlock()
	return id
}

// dict is the term → ID table: open addressing with linear probing over
// IDs, a candidate compared with its term in the term table, so a term is
// stored once — in the term table — and the table costs 4 bytes a slot.
// It is never more than half full.
type dict struct {
	seed  maphash.Seed
	slots []ID // a power of two long; NoID marks an empty slot
}

// probeHook, when set, is called on every dict.find; tests count probes
// with it.
var probeHook func()

func newDict() dict { return dict{seed: maphash.MakeSeed(), slots: make([]ID, 16)} }

// hash mixes the kind, datatype and language tag into the value's hash, so
// that terms which differ only in them take different slots.
func (d *dict) hash(t rdf.Term) uint64 {
	h := maphash.String(d.seed, t.Value) ^ uint64(t.Kind)*0x9e3779b97f4a7c15
	if t.Datatype != "" {
		h ^= bits.RotateLeft64(maphash.String(d.seed, t.Datatype), 21)
	}
	if t.Lang != "" {
		h ^= bits.RotateLeft64(maphash.String(d.seed, t.Lang), 42)
	}
	return h
}

// find returns the ID of t among the first len(terms) IDs, or NoID and
// the empty slot where the probe ended. A slot holding a later ID is
// passed over, so a generation's term table filters out what it never
// issued: a term interned later is not found.
func (d *dict) find(t rdf.Term, terms []rdf.Term) (ID, int) {
	if probeHook != nil {
		probeHook()
	}
	mask := len(d.slots) - 1
	for i := int(d.hash(t)) & mask; ; i = (i + 1) & mask {
		id := d.slots[i]
		if id == NoID {
			return NoID, i
		}
		if int(id) <= len(terms) && terms[id-1] == t {
			return id, i
		}
	}
}

// rehash returns a table of size slots holding every ID of terms.
func (d *dict) rehash(terms []rdf.Term, size int) []ID {
	slots := make([]ID, size)
	mask := size - 1
	for k, t := range terms {
		i := int(d.hash(t)) & mask
		for slots[i] != NoID {
			i = (i + 1) & mask
		}
		slots[i] = ID(k + 1)
	}
	return slots
}

// Strings are copied into slabs that double from 512 B up to 64 KiB, so a
// copy is usually a memmove rather than an allocation. A slab is never
// written where a string already lies, and terms are never reclaimed, so
// a slab lives as long as the store does; what it wastes is its unused
// tail, shorter than slabStringMax.
const (
	slabMin = 512
	slabMax = 64 << 10
	// a string longer than this gets an allocation of its own
	slabStringMax = slabMax / 16
)

// copyString returns a copy of v that shares no memory with the caller's.
func (s *Store) copyString(v string) string {
	if len(v) > slabStringMax {
		return strings.Clone(v)
	}
	if s.slab.Cap()-s.slab.Len() < len(v) {
		size := min(max(2*s.slab.Cap(), slabMin), slabMax)
		s.slab = strings.Builder{}
		s.slab.Grow(size)
	}
	n := s.slab.Len()
	s.slab.WriteString(v)
	return s.slab.String()[n:]
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
// lists and first-level keys are removed, so a key set names exactly
// the terms that still occur in that position. Term IDs are never
// reclaimed: ID assignment is append-only.
func (s *Store) Remove(t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &s.work
	si, _ := s.dict.find(t.S, w.terms)
	pi, _ := s.dict.find(t.P, w.terms)
	oi, _ := s.dict.find(t.O, w.terms)
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
	var out []rdf.Term
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
