package store

// The permutation index: first key → second key → sorted third keys,
// addressed by ID instead of by hash, and written copy-on-write.
//
// IDs are dense (1..MaxID), so the first level is a directory of
// fixed-fan-out chunks indexed by ID: a probe is two array indexes, sorted
// iteration is a walk of the chunks, and the distinct count is an integer.
// The second level is a postings node: sorted (second key, third-key list)
// entries plus the pair count below it. A node that outgrows leafMax
// entries becomes a directory of sorted leaves, the shape of
// kv/memtable.go, so a write never copies more than one chunk, one leaf
// and the lists it changes.
//
// Ownership is by epoch. The writer stamps every directory, chunk and node
// it allocates with the store's current epoch; publishing a generation
// bumps the epoch, so anything stamped with an older one may be in a
// published generation and is copied before it is changed. Owning a node
// means owning its struct and its entry (or kid) array, not the nodes
// those point to. A third-key list is owned when its entry says so: the
// flag is set when the owner of the leaf allocates the list's array and
// cleared in every copy of the leaf, so it never outlives the epoch. An
// owned list is edited in place; any other is only ever appended to past
// every published length (spare capacity) or replaced by a copy. Until the
// first publish everything is owned, which keeps a bulk load free of
// copies.

import (
	"slices"
	"sort"
)

const (
	// chunkShift sets the first-level fan-out: a chunk holds the postings
	// of chunkSize consecutive IDs, and is what a write to any of them
	// copies once per epoch.
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// leafMax bounds a postings leaf; one past it the leaf splits. A
	// write copies a leaf once per epoch, so it also bounds that cost.
	leafMax = 64
)

// index is one permutation. The value is copied into each published
// generation; what it points to is shared under the epoch rule.
type index struct {
	chunks []*chunk // chunks[i] holds IDs i*chunkSize+1 … (i+1)*chunkSize; nil where none occurs
	epoch  uint64   // epoch that allocated the chunks array
	n      int      // distinct first-level keys
}

type chunk struct {
	epoch uint64
	n     int // non-nil slots
	p     [chunkSize]*postings
}

// entry is one second-level key with its sorted, non-empty third-key list.
type entry struct {
	key  ID
	mine bool // the leaf's owner allocated list's array this epoch
	list []ID
}

// postings is a second-level node: a leaf of sorted entries, or (kids
// non-nil) a directory of sorted non-empty leaves where leaf i ends before
// leaf i+1 starts.
type postings struct {
	epoch uint64
	pairs int // (second, third) pairs at or below this node
	ents  []entry
	kids  []*postings
}

// get returns the postings under first-level key a, or nil. a must not be
// NoID; an ID the store never issued finds nothing.
func (ix *index) get(a ID) *postings {
	i := int(a-1) >> chunkShift
	if i >= len(ix.chunks) {
		return nil
	}
	c := ix.chunks[i]
	if c == nil {
		return nil
	}
	return c.p[(a-1)&chunkMask]
}

// lists returns the sorted third-key list under (a, b), or nil.
func (ix *index) lists(a, b ID) []ID { return ix.get(a).find(b) }

// each walks the first level in ID order; returning false from fn stops
// early (and propagates the false).
func (ix *index) each(fn func(a ID, p *postings) bool) bool {
	for i, c := range ix.chunks {
		if c == nil {
			continue
		}
		base := ID(i<<chunkShift) + 1
		for j, p := range &c.p {
			if p != nil && !fn(base+ID(j), p) {
				return false
			}
		}
	}
	return true
}

// seek returns the position of the first entry with key >= b in a leaf.
func (p *postings) seek(b ID) int {
	return sort.Search(len(p.ents), func(i int) bool { return p.ents[i].key >= b })
}

// child returns the index of the only leaf of a directory that can hold
// b: the last one whose first key is <= b, or the first leaf.
func (p *postings) child(b ID) int {
	return max(sort.Search(len(p.kids), func(i int) bool { return p.kids[i].ents[0].key > b })-1, 0)
}

// find returns the third-key list under b, or nil.
func (p *postings) find(b ID) []ID {
	if p == nil {
		return nil
	}
	if p.kids != nil {
		p = p.kids[p.child(b)]
	}
	if i := p.seek(b); i < len(p.ents) && p.ents[i].key == b {
		return p.ents[i].list
	}
	return nil
}

// runs hands fn one run per entry of the node, in key order: rn with the
// entry's key at position key and its list as the IDs. Returning false
// from fn stops early (and propagates the false).
func (p *postings) runs(rn Run, key Pos, fn func(Run) bool) bool {
	if p == nil {
		return true
	}
	if p.kids == nil {
		return p.leafRuns(rn, key, fn)
	}
	for _, leaf := range p.kids {
		if !leaf.leafRuns(rn, key, fn) {
			return false
		}
	}
	return true
}

func (p *postings) leafRuns(rn Run, key Pos, fn func(Run) bool) bool {
	for _, e := range p.ents {
		*rn.pos(key) = e.key
		rn.IDs = e.list
		if !fn(rn) {
			return false
		}
	}
	return true
}

// size returns the number of (second, third) pairs in the postings.
func (p *postings) size() int {
	if p == nil {
		return 0
	}
	return p.pairs
}

// containsSorted reports whether the sorted list contains v.
func containsSorted(list []ID, v ID) bool {
	i := sort.Search(len(list), func(k int) bool { return list[k] >= v })
	return i < len(list) && list[i] == v
}

// ---- the write side: everything below runs under the store's writer lock,
// on the working generation, with e the store's current epoch ----

// own returns the slot for first-level key a in a chunk stamped e, copying
// the directory and the chunk if an older epoch allocated them.
func (ix *index) own(e uint64, a ID) (*chunk, int) {
	i := int(a-1) >> chunkShift
	if i >= len(ix.chunks) {
		// past every published length: safe on a shared array
		ix.chunks = append(ix.chunks, make([]*chunk, i+1-len(ix.chunks))...)
	}
	c := ix.chunks[i]
	if c == nil || c.epoch != e {
		if ix.epoch != e {
			ix.chunks = slices.Clone(ix.chunks)
			ix.epoch = e
		}
		if c == nil {
			c = &chunk{epoch: e}
		} else {
			cc := *c
			cc.epoch = e
			c = &cc
		}
		ix.chunks[i] = c
	}
	return c, int((a - 1) & chunkMask)
}

// insert adds c to the sorted set ix[a][b]; the caller knows it is absent.
func (ix *index) insert(e uint64, a, b, c ID) {
	ch, slot := ix.own(e, a)
	p := ch.p[slot]
	if p == nil {
		p = &postings{epoch: e}
		ch.p[slot] = p
		ch.n++
		ix.n++
	} else if p.epoch != e {
		p = p.clone(e)
		ch.p[slot] = p
	}
	p.insert(e, b, c)
}

// remove deletes c from ix[a][b]; the caller knows it is present. Emptied
// lists drop their entry, emptied leaves leave their directory, emptied
// postings their chunk and an emptied chunk the index, so the key sets
// always name exactly the values that still occur in that position.
func (ix *index) remove(e uint64, a, b, c ID) {
	ch, slot := ix.own(e, a)
	p := ch.p[slot]
	if p.epoch != e {
		p = p.clone(e)
		ch.p[slot] = p
	}
	p.remove(e, b, c)
	if p.pairs > 0 {
		return
	}
	ch.p[slot] = nil
	ix.n--
	if ch.n--; ch.n == 0 {
		ix.chunks[int(a-1)>>chunkShift] = nil
	}
}

// clone returns a copy of the node stamped e, with its own entry or kid
// array and room for one more. The lists stay shared with p.
func (p *postings) clone(e uint64) *postings {
	q := *p
	q.epoch = e
	if p.kids != nil {
		q.kids = append(make([]*postings, 0, len(p.kids)+1), p.kids...)
		return &q
	}
	q.ents = make([]entry, len(p.ents), len(p.ents)+1)
	for i, en := range p.ents {
		en.mine = false
		q.ents[i] = en
	}
	return &q
}

// leafFor returns the leaf of p (owned, as p is) that holds or would hold
// b, and its position among p's kids (0 when p is itself the leaf).
func (p *postings) leafFor(e uint64, b ID) (*postings, int) {
	if p.kids == nil {
		return p, 0
	}
	j := p.child(b)
	leaf := p.kids[j]
	if leaf.epoch != e {
		leaf = leaf.clone(e)
		p.kids[j] = leaf
	}
	return leaf, j
}

func (p *postings) insert(e uint64, b, c ID) {
	leaf, j := p.leafFor(e, b)
	p.pairs++
	if leaf != p {
		leaf.pairs++
	}
	i := leaf.seek(b)
	if i < len(leaf.ents) && leaf.ents[i].key == b {
		leaf.ents[i].add(c)
		return
	}
	en := entry{b, true, []ID{c}}
	if len(leaf.ents) < leafMax {
		leaf.ents = slices.Insert(leaf.ents, i, en)
		return
	}
	// The leaf is full: part of it moves to a new leaf on its right.
	right := &postings{epoch: e}
	if i == leafMax && j+1 >= len(p.kids) {
		// IDs are handed out in insertion order, so mostly the new key
		// sorts after everything: it alone starts the next leaf and the
		// full one stays full.
		right.ents = []entry{en}
	} else {
		const h = leafMax / 2
		right.ents = append(make([]entry, 0, leafMax), leaf.ents[h:]...)
		clear(leaf.ents[h:])
		leaf.ents = leaf.ents[:h]
		if i < h {
			leaf.ents = slices.Insert(leaf.ents, i, en)
		} else {
			right.ents = slices.Insert(right.ents, i-h, en)
		}
	}
	for _, en := range right.ents {
		right.pairs += len(en.list)
	}
	if leaf == p {
		left := &postings{epoch: e, pairs: p.pairs - right.pairs, ents: p.ents}
		p.ents, p.kids = nil, []*postings{left, right}
		return
	}
	leaf.pairs -= right.pairs
	p.kids = slices.Insert(p.kids, j+1, right)
}

func (p *postings) remove(e uint64, b, c ID) {
	leaf, j := p.leafFor(e, b)
	p.pairs--
	if leaf != p {
		leaf.pairs--
	}
	i := leaf.seek(b)
	if len(leaf.ents[i].list) > 1 {
		leaf.ents[i].drop(c)
		return
	}
	leaf.ents = slices.Delete(leaf.ents, i, i+1)
	if len(leaf.ents) == 0 && leaf != p {
		p.kids = slices.Delete(p.kids, j, j+1)
	}
}

// add puts v, which it lacks, into the entry's sorted list.
func (en *entry) add(v ID) {
	n := len(en.list)
	i := n
	if en.list[n-1] > v {
		i = sort.Search(n, func(k int) bool { return en.list[k] >= v })
	}
	// A list that is not owned takes v in its spare capacity when v goes
	// last, past every published length; otherwise it is clipped, so that
	// the insert lands in a new array.
	if !en.mine && (i < n || cap(en.list) == n) {
		en.list, en.mine = en.list[:n:n], true
	}
	en.list = slices.Insert(en.list, i, v)
}

// drop takes v, which it holds beside others, out of the entry's sorted
// list. A list that is not owned keeps its array as published generations
// see it, and the result has no spare capacity over elements they read.
func (en *entry) drop(v ID) {
	n := len(en.list)
	i := sort.Search(n, func(k int) bool { return en.list[k] >= v })
	switch {
	case en.mine:
		en.list = slices.Delete(en.list, i, i+1)
	case i == n-1:
		en.list = en.list[:i:i]
	default: // the clipped prefix has no room for the suffix: a new array
		en.list, en.mine = append(en.list[:i:i], en.list[i+1:]...), true
	}
}
