package kv

// The memtable: an ordered map from key to newest value or tombstone,
// immutable once published. It is a directory of bounded sorted leaves;
// apply overlays a sorted batch copy-on-write — leaves no batch key
// falls in are shared with the previous version, the touched ones are
// rewritten — so a published *memtable never changes and a reader that
// captured the pointer needs no lock, no copy and no sort.

import (
	"slices"
	"sort"
	"strings"
)

type entry struct {
	k   string
	v   []byte
	del bool
}

// leafMax bounds a leaf; a rewritten leaf that outgrows it is split.
// One-key batches copy at most one leaf, so it also bounds their cost.
const leafMax = 256

// memEntryOverhead is the per-key bookkeeping charged to Stats.MemtableBytes
// on top of the key and value bytes.
const memEntryOverhead = 32

type memtable struct {
	leaves [][]entry // each non-empty and sorted; leaf i ends before leaf i+1 starts
	keys   int
	bytes  int
}

var emptyMemtable = &memtable{}

// find returns the index of the only leaf that can hold key — the last
// one whose first key is <= key — or -1 when key sorts before them all.
func (m *memtable) find(key string) int {
	return sort.Search(len(m.leaves), func(i int) bool { return m.leaves[i][0].k > key }) - 1
}

// seekLeaf returns the position of the first entry >= key in leaf.
func seekLeaf(leaf []entry, key string) int {
	return sort.Search(len(leaf), func(i int) bool { return leaf[i].k >= key })
}

// get returns the entry for key, tombstones included.
func (m *memtable) get(key string) (entry, bool) {
	li := m.find(key)
	if li < 0 {
		return entry{}, false
	}
	leaf := m.leaves[li]
	if i := seekLeaf(leaf, key); i < len(leaf) && leaf[i].k == key {
		return leaf[i], true
	}
	return entry{}, false
}

// sortedOps reduces a batch to its net effect in key order: one entry
// per key, carrying the last op on it.
func sortedOps(ops []entry) []entry {
	type ref struct {
		k string
		i int
	}
	refs := make([]ref, len(ops))
	for i, o := range ops {
		refs[i] = ref{o.k, i}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := strings.Compare(a.k, b.k); c != 0 {
			return c
		}
		return a.i - b.i
	})
	out := make([]entry, 0, len(ops))
	for j, r := range refs {
		if j+1 < len(refs) && refs[j+1].k == r.k {
			continue // a later op on the same key wins
		}
		out = append(out, ops[r.i])
	}
	return out
}

// apply returns m overlaid with batch, which must come from sortedOps.
// Cost is the directory copy plus the leaves the batch touches, not the
// memtable.
func (m *memtable) apply(batch []entry) *memtable {
	if len(batch) == 0 {
		return m
	}
	out := &memtable{keys: m.keys, bytes: m.bytes}
	if len(m.leaves) == 0 {
		out.mergeLeaf(nil, batch)
		return out
	}
	out.leaves = make([][]entry, 0, len(m.leaves)+len(batch)/leafMax+1)
	done := 0 // leaves of m already carried over
	for len(batch) > 0 {
		li := max(m.find(batch[0].k), 0) // keys before the first leaf join it
		out.leaves = append(out.leaves, m.leaves[done:li]...)
		n := len(batch)
		if li+1 < len(m.leaves) {
			n = seekLeaf(batch, m.leaves[li+1][0].k)
		}
		out.mergeLeaf(m.leaves[li], batch[:n])
		batch = batch[n:]
		done = li + 1
	}
	out.leaves = append(out.leaves, m.leaves[done:]...)
	return out
}

// mergeLeaf appends the merge of leaf and ops (ops win) to m's leaves,
// split into pieces of at most leafMax, and accounts the new keys and
// the value-size changes.
func (m *memtable) mergeLeaf(leaf, ops []entry) {
	run := make([]entry, 0, len(leaf)+len(ops))
	i := 0
	for _, o := range ops {
		for i < len(leaf) && leaf[i].k < o.k {
			run = append(run, leaf[i])
			i++
		}
		if i < len(leaf) && leaf[i].k == o.k {
			m.bytes -= len(leaf[i].v)
			i++
		} else {
			m.keys++
			m.bytes += len(o.k) + memEntryOverhead
		}
		m.bytes += len(o.v)
		run = append(run, o)
	}
	run = append(run, leaf[i:]...)
	if len(run) <= leafMax {
		m.leaves = append(m.leaves, run)
		return
	}
	// Each piece gets its own array, so rewriting one later frees it
	// without the others pinning the whole run.
	pieces := (len(run) + leafMax - 1) / leafMax
	size := (len(run) + pieces - 1) / pieces
	for ; len(run) > size; run = run[size:] {
		m.leaves = append(m.leaves, slices.Clone(run[:size]))
	}
	m.leaves = append(m.leaves, slices.Clone(run))
}

// memIter is the merge cursor over a memtable.
type memIter struct {
	m    *memtable
	li   int     // leaf the cursor is in
	leaf []entry // m.leaves[li], nil past the end
	pos  int
}

func (it *memIter) seek(start string) {
	it.li, it.pos, it.leaf = 0, -1, nil
	if len(it.m.leaves) == 0 {
		return
	}
	if li := it.m.find(start); li >= 0 {
		it.li = li
		it.pos = seekLeaf(it.m.leaves[li], start) - 1
	}
	it.leaf = it.m.leaves[it.li]
}

func (it *memIter) next() bool {
	it.pos++
	for it.pos >= len(it.leaf) {
		it.li++
		if it.li >= len(it.m.leaves) {
			it.leaf = nil
			return false
		}
		it.leaf, it.pos = it.m.leaves[it.li], 0
	}
	return true
}

func (it *memIter) key() string   { return it.leaf[it.pos].k }
func (it *memIter) value() []byte { return it.leaf[it.pos].v }
func (it *memIter) deleted() bool { return it.leaf[it.pos].del }
