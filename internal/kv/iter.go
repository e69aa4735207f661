package kv

import "unsafe"

// The merged cursor: the one place where a memtable and a list of
// segments become a single sorted run of live keys. Snap.Scan, the
// compactor and the disk store's readers all drive it; nothing else
// merges.
//
// A cursor is built once and sought many times, and two rules — both
// stated here and nowhere else — make a re-seek cheap:
//
//  1. Each child remembers the interval it is known to be empty on (see
//     child.lo). A Seek whose target falls in that interval leaves the
//     child where it stands, for the price of two string compares: no
//     block-index search, no block-cache lookup, no in-block search. A
//     join that probes in ascending key order therefore moves only the
//     children that hold the keys it reads; a segment whose keys all lie
//     above the probed range is sought once and then never touched.
//  2. After choosing the child that stands on the smallest key the cursor
//     remembers the runner-up and its key, so Next steps that one child
//     and compares once, until the run out of that child ends or a tie
//     appears. A run of tombstones is stepped over the same way.
//
// A cursor belongs to one goroutine at a time. Each child holds the block
// it stands in and, until its next step, the block of the key it stepped
// off — so a standing cursor pins at most two blocks per child; blocks
// reached by running off the previous one still bypass the block cache
// (segment.go).

// iter is a positioned cursor over one sorted run of (key, value,
// deleted) entries. seek positions it so that the following next lands on
// the first key >= start; next advances and reports validity.
type iter interface {
	seek(start string)
	next() bool
	key() string
	value() []byte
	deleted() bool
}

// child is one source under the merge.
type child struct {
	iter
	ok bool   // standing on a key; false once exhausted
	k  string // that key, while ok
	// The child holds no key between lo and k (or its end, when
	// exhausted): none from lo on after a seek to lo; none above lo after
	// a step off lo, which is then a key of the child (loKey).
	lo    string
	loKey bool
	// After a seek lo is a copy of the target in loBuf, so Seek keeps no
	// reference to its argument; loBuf starts on loArr, which holds any
	// key of the disk store's tables without an allocation.
	loBuf []byte
	loArr [16]byte
}

// covers reports whether a seek to t would leave the child where it is.
func (c *child) covers(t string) bool {
	if t < c.lo || (c.loKey && t == c.lo) {
		return false
	}
	return !c.ok || t <= c.k
}

func (c *child) seek(t string) {
	c.iter.seek(t)
	c.loBuf = append(c.loBuf[:0], t...)
	c.lo, c.loKey = unsafe.String(unsafe.SliceData(c.loBuf), len(c.loBuf)), false
	c.advance()
}

func (c *child) step() {
	c.lo, c.loKey = c.k, true
	c.advance()
}

func (c *child) advance() {
	if c.ok = c.iter.next(); c.ok {
		c.k = c.iter.key()
	}
}

// Iter is a cursor over the live keys of a snapshot, in key order, newest
// version of each, tombstones skipped. Seek may be called any number of
// times, in any order of targets. Keys and values alias shared immutable
// memory, as for Snap.Scan. Not safe for concurrent use.
type Iter struct {
	snap *Snap // keeps the snapshot, and so its files, from being finalized; nil under a compaction
	ctr  *readCounters
	mem  memIter
	segs []segIter
	kids []child // in priority order: kids[i] shadows kids[j] for i < j

	standing bool   // sought at least once: the children's intervals mean something
	cur      int    // the child standing on the smallest key; -1 when there is none
	second   int    // the runner-up, standing on the smallest key among the others; -1 when there is none
	bound    string // the runner-up's key
}

// newIter builds a cursor over mem (nil for none) and segs (oldest →
// newest, as a state lists them). The caller keeps the segments pinned.
func newIter(mem *memtable, segs []*segment, ctr *readCounters) *Iter {
	it := &Iter{ctr: ctr, cur: -1, second: -1, segs: make([]segIter, len(segs))}
	it.kids = make([]child, 0, len(segs)+1)
	if mem != nil {
		it.mem.m = mem
		it.kids = append(it.kids, child{iter: &it.mem})
	}
	for i := len(segs) - 1; i >= 0; i-- {
		it.segs[i].s = segs[i]
		it.kids = append(it.kids, child{iter: &it.segs[i]})
	}
	for i := range it.kids {
		it.kids[i].loBuf = it.kids[i].loArr[:0]
	}
	return it
}

// Iter returns a cursor over the snapshot, positioned nowhere: call Seek.
// It must not be used after the snapshot's Release.
func (s *Snap) Iter() *Iter {
	it := newIter(s.st.mem, s.st.segs, s.ctr)
	it.snap = s
	return it
}

// Seek positions the cursor on the first live key >= t. It keeps no
// reference to t, so t may live in storage the caller reuses.
func (it *Iter) Seek(t string) {
	moved := 0
	for i := range it.kids {
		if c := &it.kids[i]; !it.standing || !c.covers(t) {
			c.seek(t)
			moved++
		}
	}
	it.standing = true
	it.ctr.seeks.Add(uint64(len(it.kids)))
	it.ctr.seeksInPlace.Add(uint64(len(it.kids) - moved))
	if moved > 0 { // else every child, and so the choice among them, stands
		it.choose(false)
	}
}

// Next moves to the next live key.
func (it *Iter) Next() {
	if !it.run() {
		it.choose(true)
	}
}

// run steps the chosen child to its next live key, reporting false when
// its run has ended: the child is exhausted or has reached the runner-up.
func (it *Iter) run() bool {
	c := &it.kids[it.cur]
	for {
		c.step()
		if !c.ok || (it.second >= 0 && c.k >= it.bound) {
			return false
		}
		if !c.deleted() {
			return true
		}
	}
}

// choose settles the cursor on the smallest live key: it picks the child
// standing on the smallest key (the first in priority order on a tie),
// steps the older versions of that key out of the way and records the
// runner-up; a tombstone is then stepped over like any other key. After
// a run that ended past the runner-up (ran), the runner-up is the new
// choice and only its own runner-up has to be found.
func (it *Iter) choose(ran bool) {
	for {
		if ran && (!it.kids[it.cur].ok || it.kids[it.cur].k > it.bound) {
			it.cur = it.second
		} else {
			it.cur = -1
			for i := range it.kids {
				if c := &it.kids[i]; c.ok && (it.cur < 0 || c.k < it.kids[it.cur].k) {
					it.cur = i
				}
			}
		}
		if it.second = -1; it.cur < 0 {
			return
		}
		best := &it.kids[it.cur]
		for i := range it.kids {
			c := &it.kids[i]
			if c == best || !c.ok {
				continue
			}
			if c.k == best.k {
				if c.step(); !c.ok {
					continue
				}
			}
			if it.second < 0 || c.k < it.bound {
				it.second, it.bound = i, c.k
			}
		}
		if !best.deleted() || it.run() {
			return
		}
		ran = true
	}
}

// Valid reports whether the cursor stands on a key.
func (it *Iter) Valid() bool { return it.cur >= 0 }

// Key returns the key the cursor stands on.
func (it *Iter) Key() string { return it.kids[it.cur].k }

// Value returns the value under Key.
func (it *Iter) Value() []byte { return it.kids[it.cur].value() }

// Err returns the first read or decode failure a segment of the cursor
// has met. A failed segment looks exhausted to the merge, so whoever
// needs every key (compaction) must check; the failure is sticky, and a
// cursor that has one should be dropped rather than sought again.
func (it *Iter) Err() error {
	for i := range it.segs {
		if err := it.segs[i].err; err != nil {
			return err
		}
	}
	return nil
}
