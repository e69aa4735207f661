package disk

import (
	"sync/atomic"

	"repro/internal/rdf"
	"repro/internal/store"
)

// The term cache: ID → rdf.Term, one direct-mapped table for the whole
// process, shared by every Reader of every open Store. Its memory is
// fixed by the two constants below — at most termCacheSlots entries of
// at most termCacheMaxEncoded encoded bytes each, whatever the number of
// open stores or of IDs ever issued. IDs are never reused, so an entry
// stays valid across snapshots and compactions; a newer term mapping to
// the same slot simply replaces it. Lock-free: a hit is two atomic loads
// (the table, the slot) and two compares.
const (
	termCacheSlots = 1 << 16
	// termCacheMaxEncoded is the longest term encoding the cache keeps.
	// Longer terms (big literals) are decoded on every use: they are
	// rare among the terms queries return again and again, and a table
	// of them would be bounded only by their length.
	termCacheMaxEncoded = 256
)

type termEntry struct {
	owner uint32
	id    store.ID
	term  rdf.Term
}

type termCache struct {
	slots [termCacheSlots]atomic.Pointer[termEntry]
}

// terms is the one table, allocated by the first Open: a process that
// opens no disk store carries no table.
var terms atomic.Pointer[termCache]

// termCacheOwners numbers the stores opened by this process.
var termCacheOwners atomic.Uint32

// slot spreads stores over the table (a multiplicative hash of the
// owner) and keeps one store's consecutive IDs in consecutive slots, so
// a store with fewer terms than slots never collides with itself.
func (c *termCache) slot(owner uint32, id store.ID) *atomic.Pointer[termEntry] {
	return &c.slots[(uint32(id)+owner*0x9E3779B1)%termCacheSlots]
}

func (c *termCache) get(owner uint32, id store.ID) (rdf.Term, bool) {
	if e := c.slot(owner, id).Load(); e != nil && e.id == id && e.owner == owner {
		return e.term, true
	}
	return rdf.Term{}, false
}

func (c *termCache) put(owner uint32, id store.ID, t rdf.Term) {
	c.slot(owner, id).Store(&termEntry{owner: owner, id: id, term: t})
}
