// Package snapcache is H-BOLD's versioned snapshot cache for the
// presentation read path. Every presentation-layer read (Schema
// Summary, Cluster Schema, layout model, rendered SVG) is a pure
// function of the dataset's published state, which only changes when
// internal/core commits a new generation of it (a successful extraction
// or an applied update). The cache therefore keys each materialized
// result by (dataset URL, epoch, view, params), where the epoch is the
// dataset's generation — or, for a result that reads only the dataset's
// topology (the bundle view), its topology epoch, the generation at which
// that topology last changed, so the entry outlives updates that only
// move counts. Stale entries are never served — they simply stop being
// addressed, and the commit drops them eagerly with InvalidateBefore.
//
// Concurrent misses for the same key collapse singleflight-style: one
// caller computes while the rest wait for its result, so a thundering
// herd after an invalidation recomputes each snapshot once, not once
// per reader. Memory is bounded by a byte budget with least-recently-
// used eviction; a budget of zero (or a nil *Cache) disables caching
// entirely and turns GetOrCompute into a pass-through, which is how
// the uncached arm of benchmark E13 and `hbold serve -cache 0` run.
package snapcache

import (
	"container/list"
	"fmt"
	"sync"
)

// Key addresses one materialized snapshot. Generation is the dataset's
// generation from internal/core, or its topology epoch when Topology is
// set; View names the materialized artifact (e.g. "api:summary",
// "view:treemap"); Params carries any request parameters the artifact
// depends on (e.g. the bundle focus class), canonicalized by the caller.
type Key struct {
	URL        string
	Generation uint64
	Topology   bool
	View       string
	Params     string
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts lookups served from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that ran the compute function (collapsed
	// waiters are counted under Collapsed, not here).
	Misses int64 `json:"misses"`
	// Collapsed counts lookups that waited on another caller's
	// in-flight compute instead of recomputing (singleflight).
	Collapsed int64 `json:"collapsed"`
	// Evictions counts entries dropped to keep Bytes within Budget.
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped by InvalidateBefore.
	Invalidations int64 `json:"invalidations"`
	// Entries is the current number of resident snapshots.
	Entries int `json:"entries"`
	// Bytes is the current resident size; Budget is the configured cap.
	Bytes  int64 `json:"bytes"`
	Budget int64 `json:"budget"`
}

// entry is one resident snapshot; elem is its LRU list element.
type entry struct {
	key  Key
	val  []byte
	elem *list.Element
}

// call is one in-flight compute that concurrent misses wait on.
type call struct {
	wg  sync.WaitGroup
	val []byte
	err error
}

// Cache is a byte-bounded LRU of materialized snapshots with
// singleflight miss collapse. It is safe for concurrent use. A nil
// *Cache is valid and caches nothing.
type Cache struct {
	budget int64

	mu      sync.Mutex
	entries map[Key]*entry
	byURL   map[string]map[Key]*entry // secondary index for invalidation
	lru     *list.List                // front = most recent; values are *entry
	flight  map[Key]*call
	bytes   int64

	hits, misses, collapsed, evictions, invalidations int64
}

// New builds a cache holding at most budget bytes of snapshots. A
// budget <= 0 disables caching: GetOrCompute becomes a pass-through.
func New(budget int64) *Cache {
	if budget <= 0 {
		return &Cache{}
	}
	return &Cache{
		budget:  budget,
		entries: make(map[Key]*entry),
		byURL:   make(map[string]map[Key]*entry),
		lru:     list.New(),
		flight:  make(map[Key]*call),
	}
}

// Enabled reports whether the cache actually stores anything.
func (c *Cache) Enabled() bool { return c != nil && c.budget > 0 }

// GetOrCompute returns the snapshot for key, running compute on a miss.
// A snapshot is bytes — the wire body of a view — and occupies its
// capacity; compute gives up ownership of what it returns. An error is
// returned to every collapsed waiter and nothing is cached. Slices
// handed out are shared across callers and must be treated as
// immutable. On a disabled cache compute runs unconditionally.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, error) {
	if !c.Enabled() {
		return compute()
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		return e.val, nil
	}
	if f, ok := c.flight[key]; ok {
		c.collapsed++
		c.mu.Unlock()
		f.wg.Wait()
		return f.val, f.err
	}
	f := &call{}
	f.wg.Add(1)
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	// the cleanup is deferred so a panicking compute cannot wedge the
	// key: the flight entry is always removed and waiters are always
	// released — with an error, letting the panic keep unwinding
	returned := false
	defer func() {
		if !returned {
			f.err = fmt.Errorf("snapcache: compute panicked for %s %s", key.URL, key.View)
		}
		c.mu.Lock()
		delete(c.flight, key)
		if returned && f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		f.wg.Done()
	}()
	f.val, f.err = compute()
	returned = true
	return f.val, f.err
}

// insertLocked adds a computed snapshot and evicts from the LRU tail
// until the budget holds. A snapshot larger than the whole budget is
// not cached at all.
func (c *Cache) insertLocked(key Key, v []byte) {
	if int64(cap(v)) > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		// a concurrent InvalidateBefore + recompute can race an older
		// flight; keep the newer value
		c.removeLocked(old)
	}
	e := &entry{key: key, val: v}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	if c.byURL[key.URL] == nil {
		c.byURL[key.URL] = make(map[Key]*entry)
	}
	c.byURL[key.URL][key] = e
	c.bytes += int64(cap(v))
	for c.bytes > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail.Value.(*entry))
		c.evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	if keys := c.byURL[e.key.URL]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byURL, e.key.URL)
		}
	}
	c.bytes -= int64(cap(e.val))
}

// InvalidateBefore drops every resident snapshot of url keyed on an epoch
// older than the current one of its kind — generation gen, or topology
// epoch topology for a Topology key — and returns how many were dropped.
// core's commit calls it right after publishing the state with those
// epochs, so the stale snapshots of a refreshed or updated dataset free
// their bytes immediately instead of aging out, and nothing that can no
// longer be addressed stays resident; the per-URL index keeps the scan
// proportional to that one dataset's entries, not the whole cache.
func (c *Cache) InvalidateBefore(url string, gen, topology uint64) int {
	if !c.Enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.byURL[url] {
		current := gen
		if key.Topology {
			current = topology
		}
		if key.Generation < current {
			c.removeLocked(e)
			n++
		}
	}
	c.invalidations += int64(n)
	return n
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Collapsed:     c.collapsed,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		Budget:        c.budget,
	}
}
