package store

// The permutation index: first key → second key → sorted third keys,
// addressed by ID instead of by hash, and written copy-on-write.
//
// IDs are dense (1..MaxID), so the first level is a directory of
// fixed-fan-out chunks indexed by ID: a probe is two array indexes, sorted
// iteration is a walk of the chunks, and the distinct count is an integer.
// The second level is a postings node: a packed leaf — the sorted second
// keys, the ends of their third-key lists and all the third keys in one
// []ID — plus the pair count below it. A leaf that outgrows leafMax keys
// or leafIDs IDs splits, and the node becomes a directory of sorted
// leaves, the shape of kv/memtable.go, so a write copies at most one
// chunk, one directory and one leaf. A leaf of one key is exempt from the
// ID bound: its list is as long as it needs to be, and it is the one leaf
// whose copy grows with the data.
//
// Ownership is by epoch. The writer stamps every directory, chunk and node
// it allocates with the store's current epoch; publishing a generation
// bumps the epoch, so anything stamped with an older one may be in a
// published generation and is copied before it is changed. Owning a leaf
// means owning its struct and its ids array: the array of a leaf stamped
// with the current epoch was allocated in it, so it is edited in place.
// A leaf that is not owned is only ever appended to past every published
// length (spare capacity, when the new ID goes last in its last list),
// clipped when its last ID goes, or replaced by a copy; the first two
// replace the struct but keep its epoch, as they take no ownership. Until
// the first publish everything is owned, which keeps a bulk load free of
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

	// leafMax bounds the keys of a postings leaf and leafIDs the length
	// of its ids array when it has more than one key; one past either the
	// leaf splits. A write copies a leaf once per epoch, so they also
	// bound that cost (2 KiB).
	leafMax = 64
	leafIDs = 512
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

// postings is a second-level node: a leaf, or (kids non-nil) a directory
// of sorted non-empty leaves where leaf i ends before leaf i+1 starts.
//
// A leaf of n keys packs them into ids as
//
//	n | keys (n, sorted) | ends (n-1) | third keys
//
// where list i is thirds[ends[i-1]:ends[i]], with ends[-1] = 0 and the
// last list running to the end of the array: so the ID that goes last in
// the last list is an append, and a leaf is 2n + pairs IDs long.
type postings struct {
	epoch uint64
	pairs int // (second, third) pairs at or below this node
	ids   []ID
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

// width returns the number of keys of a leaf.
func (p *postings) width() int { return int(p.ids[0]) }

// keys returns a leaf's sorted second keys.
func (p *postings) keys() []ID { return p.ids[1 : 1+p.width()] }

// start returns where list i of a leaf begins in its ids (i = width: the
// array's end).
func (p *postings) start(i int) int {
	n := p.width()
	switch {
	case i == 0:
		return 2 * n
	case i == n:
		return len(p.ids)
	}
	return 2*n + int(p.ids[n+i])
}

// list returns list i of a leaf, capped so that an append to it cannot
// reach its neighbour's IDs.
func (p *postings) list(i int) []ID {
	lo, hi := p.start(i), p.start(i+1)
	return p.ids[lo:hi:hi]
}

// child returns the index of the only leaf of a directory that can hold
// b: the last one whose first key is <= b, or the first leaf.
func (p *postings) child(b ID) int {
	return max(sort.Search(len(p.kids), func(i int) bool { return p.kids[i].ids[1] > b })-1, 0)
}

// find returns the third-key list under b, or nil.
func (p *postings) find(b ID) []ID {
	if p == nil {
		return nil
	}
	if p.kids != nil {
		p = p.kids[p.child(b)]
	}
	if i, ok := slices.BinarySearch(p.keys(), b); ok {
		return p.list(i)
	}
	return nil
}

// runs hands fn one run per key of the node, in key order: rn with the
// key at position key and its list as the IDs. Returning false from fn
// stops early (and propagates the false).
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
	n := p.width()
	keys, ends, thirds := p.ids[1:1+n], p.ids[1+n:2*n], p.ids[2*n:]
	at := rn.pos(key)
	lo := ID(0)
	for i, k := range keys[:len(ends)] {
		hi := ends[i]
		*at = k
		rn.IDs = thirds[lo:hi:hi]
		if !fn(rn) {
			return false
		}
		lo = hi
	}
	*at = keys[n-1]
	rn.IDs = thirds[lo:len(thirds):len(thirds)]
	return fn(rn)
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
		ch.p[slot] = newLeaf(e, b, c)
		ch.n++
		ix.n++
		return
	}
	ch.p[slot] = p.insert(e, b, c)
}

// remove deletes c from ix[a][b]; the caller knows it is present. Emptied
// lists drop their key, emptied leaves leave their directory, emptied
// postings their chunk and an emptied chunk the index, so the key sets
// always name exactly the values that still occur in that position.
func (ix *index) remove(e uint64, a, b, c ID) {
	ch, slot := ix.own(e, a)
	if p := ch.p[slot].remove(e, b, c); p != nil {
		ch.p[slot] = p
		return
	}
	ch.p[slot] = nil
	ix.n--
	if ch.n--; ch.n == 0 {
		ix.chunks[int(a-1)>>chunkShift] = nil
	}
}

// newLeaf returns a leaf stamped e holding c under b alone.
func newLeaf(e uint64, b, c ID) *postings {
	return &postings{epoch: e, pairs: 1, ids: []ID{1, b, c}}
}

// insert returns the node that takes p's place once c, which it lacks,
// is in the set under b.
func (p *postings) insert(e uint64, b, c ID) *postings {
	if p.kids == nil {
		left, right := p.leafInsert(e, b, c)
		if right == nil {
			return left
		}
		return &postings{epoch: e, pairs: left.pairs + right.pairs, kids: []*postings{left, right}}
	}
	d := p.ownDir(e)
	j := d.child(b)
	left, right := d.kids[j].leafInsert(e, b, c)
	d.kids[j] = left
	if right != nil {
		d.kids = slices.Insert(d.kids, j+1, right)
	}
	d.pairs++
	return d
}

// remove returns the node that takes p's place once c, which it holds,
// is gone from the set under b, or nil if that empties it.
func (p *postings) remove(e uint64, b, c ID) *postings {
	if p.kids == nil {
		return p.leafRemove(e, b, c)
	}
	if p.pairs == 1 {
		return nil
	}
	d := p.ownDir(e)
	j := d.child(b)
	if leaf := d.kids[j].leafRemove(e, b, c); leaf != nil {
		d.kids[j] = leaf
	} else {
		d.kids = slices.Delete(d.kids, j, j+1)
	}
	d.pairs--
	return d
}

// ownDir returns the directory p stamped e, copying it with its kid array
// (and room for one more) if an older epoch allocated it. The leaves stay
// shared.
func (p *postings) ownDir(e uint64) *postings {
	if p.epoch == e {
		return p
	}
	q := *p
	q.epoch = e
	q.kids = append(make([]*postings, 0, len(p.kids)+1), p.kids...)
	return &q
}

// ownLeaf returns the leaf p stamped e, copying it with its ids (and room
// for extra more) if an older epoch allocated it.
func (p *postings) ownLeaf(e uint64, extra int) *postings {
	if p.epoch == e {
		return p
	}
	q := *p
	q.epoch = e
	q.ids = append(make([]ID, 0, len(p.ids)+extra), p.ids...)
	return &q
}

// leafInsert puts c, which it lacks, into the list under b, and returns
// what takes the leaf's place: one leaf, or two when it splits.
func (p *postings) leafInsert(e uint64, b, c ID) (*postings, *postings) {
	n := p.width()
	i, found := slices.BinarySearch(p.keys(), b)
	if !found {
		if i == n && (n == leafMax || len(p.ids)+3 > leafIDs) {
			// The leaf is full and b sorts after all of it, as it mostly
			// does (IDs are handed out in insertion order): b alone starts
			// the next leaf and this one stays as it is.
			return p, newLeaf(e, b, c)
		}
		q := p.ownLeaf(e, 3)
		q.insertKey(i, b, c)
		return q.split(e)
	}
	lo, hi := p.start(i), p.start(i+1)
	k, _ := slices.BinarySearch(p.ids[lo:hi], c)
	k += lo
	if k == len(p.ids) && p.epoch != e && len(p.ids) < cap(p.ids) && (n == 1 || len(p.ids) < leafIDs) {
		// past every published length: no copy, and no ownership
		q := *p
		q.ids = append(q.ids, c)
		q.pairs++
		return &q, nil
	}
	q := p.ownLeaf(e, 1)
	q.ids = slices.Insert(q.ids, k, c)
	q.shiftEnds(i, 1)
	q.pairs++
	return q.split(e)
}

// leafRemove takes c, which it holds, out of the list under b, and
// returns what takes the leaf's place, or nil if that empties it.
func (p *postings) leafRemove(e uint64, b, c ID) *postings {
	if p.pairs == 1 {
		return nil
	}
	i, _ := slices.BinarySearch(p.keys(), b)
	lo, hi := p.start(i), p.start(i+1)
	k, _ := slices.BinarySearch(p.ids[lo:hi], c)
	k += lo
	if hi-lo == 1 {
		q := p.ownLeaf(e, 0)
		q.deleteKey(i)
		return q
	}
	if k == len(p.ids)-1 && p.epoch != e {
		// Clipped, so that a later append lands in a new array rather
		// than over the ID published generations still read.
		q := *p
		q.ids = q.ids[:k:k]
		q.pairs--
		return &q
	}
	q := p.ownLeaf(e, 0)
	q.ids = slices.Delete(q.ids, k, k+1)
	q.shiftEnds(i, -1)
	q.pairs--
	return q
}

// shiftEnds adds d to the ends of lists i and after, in an owned leaf.
func (p *postings) shiftEnds(i, d int) {
	n := p.width()
	for j := n + 1 + i; j < 2*n; j++ {
		p.ids[j] = ID(int(p.ids[j]) + d)
	}
}

// insertKey puts key b with the list {c} at position i of an owned leaf.
// The inserts go back to front, so each position is still where the one
// before left it; the ends after the new one then move up by its ID.
func (p *postings) insertKey(i int, b, c ID) {
	n := p.width()
	at := p.start(i)
	p.ids = slices.Insert(p.ids, at, c)
	if end := ID(at - 2*n); i == n {
		// the old last list gets an explicit end, and the new one is last
		p.ids = slices.Insert(p.ids, 2*n, end)
	} else {
		p.ids = slices.Insert(p.ids, n+1+i, end+1)
	}
	p.ids = slices.Insert(p.ids, 1+i, b)
	p.ids[0]++
	p.shiftEnds(i+1, 1)
	p.pairs++
}

// deleteKey takes key i, whose list holds one ID, out of an owned leaf of
// more than one key.
func (p *postings) deleteKey(i int) {
	n := p.width()
	at := p.start(i)
	p.ids = slices.Delete(p.ids, at, at+1)
	if i == n-1 {
		// the list before becomes the last: its end goes implicit
		p.ids = slices.Delete(p.ids, 2*n-1, 2*n)
	} else {
		p.ids = slices.Delete(p.ids, n+1+i, n+2+i)
	}
	p.ids = slices.Delete(p.ids, 1+i, 2+i)
	p.ids[0]--
	p.shiftEnds(i, -1)
	p.pairs--
}

// split returns an owned leaf as it is if it keeps within the bounds, and
// otherwise as two new leaves, the first the shortest prefix of keys that
// holds half its IDs. Neither then breaks a bound unless it has a single
// key: a leaf of several keys is over leafIDs by at most the 3 IDs one
// insert adds (or it had one key before it), and each key takes at least
// 3 IDs, so the prefix, which leaves one key or more, is within leafIDs,
// and so is the rest, which is at most half.
func (p *postings) split(e uint64) (*postings, *postings) {
	n := p.width()
	if n == 1 || n <= leafMax && len(p.ids) <= leafIDs {
		return p, nil
	}
	// A prefix of s keys packs into 2s + (start(s) - 2n) IDs.
	s := 1
	for s < n-1 && 2*s+p.start(s)-2*n < len(p.ids)/2 {
		s++
	}
	return p.slice(e, 0, s), p.slice(e, s, n)
}

// slice returns a new leaf stamped e holding keys [lo, hi) of p.
func (p *postings) slice(e uint64, lo, hi int) *postings {
	n, first, last := p.width(), p.start(lo), p.start(hi)
	m := hi - lo
	ids := make([]ID, 0, 2*m+last-first)
	ids = append(ids, ID(m))
	ids = append(ids, p.ids[1+lo:1+hi]...)
	for j := lo; j < hi-1; j++ {
		ids = append(ids, p.ids[n+1+j]-ID(first-2*n))
	}
	ids = append(ids, p.ids[first:last]...)
	return &postings{epoch: e, pairs: last - first, ids: ids}
}
