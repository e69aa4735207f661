package store

// The load path: a new store built in one sorted pass.
//
// Add (index.go) is the update path: it keeps every permutation sorted
// after each triple, so a list grows by an insert into the middle of a
// leaf, a leaf grows by doubling, and what the load leaves is whatever
// room each array had when it ended. A load knows all of its triples
// before anyone reads them, so the Builder interns terms as they come —
// the same IDs Add would give — keeps the IDs in one flat slice, and sorts
// that slice once per permutation. Each first key's triples are then one
// contiguous range, and each postings leaf is packed from it at its final
// size, within the leafMax and leafIDs bounds and with no spare capacity.

import (
	"math/bits"
	"slices"

	"repro/internal/rdf"
)

// Builder loads a new store: Add every triple, in any order and with any
// duplicates, then Store once. It is for one goroutine, and nothing can
// read the store until Store returns it.
type Builder struct {
	s  *Store
	ts [][3]ID // the triples added, as (s, p, o), duplicates included
	// the last triple's subject and its ID: a document lists a subject's
	// triples together (Turtle's ';' and ',' lists, subject-grouped
	// N-Triples), so most subjects need no dictionary probe
	subj   rdf.Term
	subjID ID
}

// NewBuilder returns a builder of an empty store.
func NewBuilder() *Builder { return &Builder{s: New()} }

// Add records a triple. Its terms are interned in the order Store.Add
// interns them (subject, predicate, object, the first time each is seen),
// so a store built from a sequence of triples gives every term the ID the
// same sequence of Adds would.
func (b *Builder) Add(t rdf.Triple) {
	if b.subjID == NoID || t.S != b.subj {
		b.subj, b.subjID = t.S, b.s.intern(t.S)
	}
	b.ts = append(b.ts, [3]ID{b.subjID, b.s.intern(t.P), b.s.intern(t.O)})
}

// AddSPO records a triple given its components.
func (b *Builder) AddSPO(sub, pred, obj rdf.Term) { b.Add(rdf.Triple{S: sub, P: pred, O: obj}) }

// Store sorts and dedupes the triples, packs the three permutations and
// publishes them as the store's first generation. The builder is spent:
// it drops its triples, and must not be used again.
func (b *Builder) Store() *Store {
	s, ts := b.s, b.ts
	*b = Builder{}
	width := bits.Len32(uint32(len(s.work.terms)))
	tmp := make([][3]ID, len(ts))
	// SPO: sort on o, then p, then s (least significant first); duplicates
	// are now neighbours.
	ts, tmp = radixSort(ts, tmp, PosO, width)
	ts, tmp = radixSort(ts, tmp, PosP, width)
	ts, tmp = radixSort(ts, tmp, PosS, width)
	ts = slices.Compact(ts)
	tmp = tmp[:len(ts)]
	w := &s.work
	w.n = len(ts)
	w.spo = packIndex(s.epoch, ts, PosS, PosP, PosO)
	// An order sorted on s is what a sort on s would leave, so POS needs
	// only o then p, and OSP, from POS's order, only s then o.
	ts, tmp = radixSort(ts, tmp, PosO, width)
	ts, tmp = radixSort(ts, tmp, PosP, width)
	w.pos = packIndex(s.epoch, ts, PosP, PosO, PosS)
	ts, tmp = radixSort(ts, tmp, PosS, width)
	ts, _ = radixSort(ts, tmp, PosO, width)
	w.osp = packIndex(s.epoch, ts, PosO, PosS, PosP)
	s.dirty.Store(true)
	s.Flush()
	return s
}

// radixSort sorts ts stably on position k, whose IDs fit in width bits,
// a byte at a time, through tmp (as long as ts). It returns the sorted
// slice and the other buffer, which are ts and tmp in some order. A byte
// every triple shares takes no pass.
func radixSort(ts, tmp [][3]ID, k Pos, width int) ([][3]ID, [][3]ID) {
	for shift := 0; shift < width; shift += 8 {
		var count [256]int
		for _, t := range ts {
			count[byte(t[k]>>shift)]++
		}
		if len(ts) == 0 || count[byte(ts[0][k]>>shift)] == len(ts) {
			continue
		}
		at := 0
		for d, n := range count {
			count[d] = at
			at += n
		}
		for _, t := range ts {
			d := byte(t[k] >> shift)
			tmp[count[d]] = t
			count[d]++
		}
		ts, tmp = tmp, ts
	}
	return ts, tmp
}

// packIndex builds the permutation (a, b, c) from triples sorted on a,
// then b, then c, with no two alike. Everything it allocates is stamped
// e.
func packIndex(e uint64, ts [][3]ID, a, b, c Pos) index {
	ix := index{epoch: e}
	if len(ts) == 0 {
		return ix
	}
	ix.chunks = make([]*chunk, int(ts[len(ts)-1][a]-1)>>chunkShift+1)
	var leaves []*postings // reused: each node takes a copy of its own
	for i := 0; i < len(ts); {
		first := ts[i][a]
		j := i + 1
		for j < len(ts) && ts[j][a] == first {
			j++
		}
		leaves = packLeaves(e, ts[i:j], b, c, leaves[:0])
		p := leaves[0]
		if len(leaves) > 1 {
			p = &postings{epoch: e, pairs: j - i, kids: make([]*postings, len(leaves))}
			copy(p.kids, leaves)
		}
		ch := ix.chunks[int(first-1)>>chunkShift]
		if ch == nil {
			ch = &chunk{epoch: e}
			ix.chunks[int(first-1)>>chunkShift] = ch
		}
		ch.p[(first-1)&chunkMask] = p
		ch.n++
		i = j
	}
	return ix
}

// packLeaves appends to leaves the leaves of one first key's triples,
// sorted on b then c: each takes keys while it stays within leafMax keys
// and, past its first key, leafIDs IDs.
func packLeaves(e uint64, ts [][3]ID, b, c Pos, leaves []*postings) []*postings {
	for i := 0; i < len(ts); {
		n, size, j := 0, 0, i
		for j < len(ts) && n < leafMax {
			k := j + 1
			for k < len(ts) && ts[k][b] == ts[j][b] {
				k++
			}
			if n > 0 && size+2+k-j > leafIDs {
				break
			}
			n, size, j = n+1, size+2+k-j, k
		}
		leaves = append(leaves, packLeaf(e, ts[i:j], n, size, b, c))
		i = j
	}
	return leaves
}

// packLeaf lays n keys out as one leaf of size IDs (see postings).
func packLeaf(e uint64, ts [][3]ID, n, size int, b, c Pos) *postings {
	ids := make([]ID, size)
	ids[0] = ID(n)
	keys, ends, thirds := ids[1:1+n], ids[1+n:2*n], ids[2*n:]
	key := -1
	for i, t := range ts {
		if key < 0 || t[b] != keys[key] {
			if key >= 0 {
				ends[key] = ID(i)
			}
			key++
			keys[key] = t[b]
		}
		thirds[i] = t[c]
	}
	return &postings{epoch: e, pairs: len(ts), ids: ids}
}
