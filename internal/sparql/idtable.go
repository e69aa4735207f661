package sparql

import (
	"slices"

	"repro/internal/store"
)

// idTable is the one hash table behind ID-space deduplication and
// grouping: a set of fixed-width ID tuples, packed in insertion order and
// found by linear probing, so no key is hashed as a string or
// materialized as a term. A tuple's index is its first-insertion rank,
// for a caller to keep what belongs to it in a parallel slice. The zero
// value with width set is empty.
type idTable struct {
	width, n int
	keys     []store.ID // tuple i is keys[i*width : (i+1)*width]
	index    []int32    // a power of two, at most half full; 0 = empty, else tuple index + 1
	probe    []store.ID // addAt's gathered key
}

// add returns key's index, inserting a copy of it if it is new.
func (t *idTable) add(key []store.ID) (i int, added bool) {
	if 2*(t.n+1) > len(t.index) {
		t.grow()
	}
	h, j := t.find(key)
	if j >= 0 {
		return j, false
	}
	t.keys = append(t.keys, key...)
	t.n++
	t.index[h] = int32(t.n)
	return t.n - 1, true
}

// addAt is add over row r's IDs at slots (a slot of -1 reads as unbound).
func (t *idTable) addAt(r []store.ID, slots []int) (int, bool) {
	if t.probe == nil {
		t.probe = make([]store.ID, len(slots))
	}
	for i, s := range slots {
		t.probe[i] = store.NoID
		if s >= 0 {
			t.probe[i] = r[s]
		}
	}
	return t.add(t.probe)
}

// find returns the index position holding key, or the empty one where it
// belongs, and key's tuple index (-1: absent).
func (t *idTable) find(key []store.ID) (h, j int) {
	mask := len(t.index) - 1
	for h = hashIDs(key) & mask; ; h = (h + 1) & mask {
		if j = int(t.index[h]) - 1; j < 0 || slices.Equal(t.keys[j*t.width:(j+1)*t.width], key) {
			return h, j
		}
	}
}

// grow doubles the index (to at least 16) and re-places every tuple.
func (t *idTable) grow() {
	t.index = make([]int32, max(16, 2*len(t.index)))
	for j := 0; j < t.n; j++ {
		h, _ := t.find(t.keys[j*t.width : (j+1)*t.width])
		t.index[h] = int32(j + 1)
	}
}

// hashIDs mixes a tuple's IDs (multiply, then fold the high half down, per
// ID) so that consecutive IDs spread over the low bits the index uses.
func hashIDs(key []store.ID) int {
	h := uint64(0)
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return int(h)
}
