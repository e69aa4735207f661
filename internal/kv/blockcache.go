package kv

// The block cache: decoded segment blocks, shared by every open DB in
// the process and bounded in bytes by one constant. A cached block is
// the bytes as stored plus the offset of every entry, computed once, so
// a seek that hits is a map lookup and a binary search inside the block
// — no pread, no buffer, no decode. Only seeks (segIter.seek,
// segment.get) go through it; see segment.go for why scans do not.

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"
)

// blockCacheBytes is the process-wide budget for decoded blocks: block
// bytes, entry offsets and blockOverhead per block. `hbold serve
// -data-dir` opens one DB per dataset, so the bound is per process, not
// per DB.
const blockCacheBytes = 4 << 20

// blockOverhead is the bookkeeping charged per cached block on top of
// its bytes and offsets: the block, its cache entry, list element and
// map slot.
const blockOverhead = 160

// blocks is the one cache. Tests that need evictions to happen shrink
// its budget; nothing else writes the field.
var blocks = newBlockCache(blockCacheBytes)

// block is one decoded segment block. Both slices are immutable once
// built and owned by the garbage collector: keys and values handed out
// alias data and stay valid for as long as anyone holds them, whether
// or not the block is still cached.
type block struct {
	data []byte
	offs []uint32 // start of each entry in data, ascending
}

// indexBlock validates every entry of data and records where each
// starts.
func indexBlock(data []byte) (*block, error) {
	if len(data) > math.MaxUint32 {
		return nil, fmt.Errorf("block of %d bytes", len(data))
	}
	b := &block{data: data, offs: make([]uint32, 0, len(data)/12+1)}
	for rest := data; len(rest) > 0; {
		b.offs = append(b.offs, uint32(len(data)-len(rest)))
		var err error
		if _, _, _, rest, err = decodeEntry(rest); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// keyAt returns the key of entry i, aliasing the block.
func (b *block) keyAt(i int) string {
	buf := b.data[b.offs[i]:]
	klen, w := binary.Uvarint(buf) // validated by indexBlock
	return unsafe.String(unsafe.SliceData(buf[w:]), int(klen))
}

// search returns the position of the first entry whose key is >= key.
func (b *block) search(key string) int {
	return sort.Search(len(b.offs), func(i int) bool { return b.keyAt(i) >= key })
}

func (b *block) size() int64 {
	return int64(len(b.data)) + 4*int64(cap(b.offs)) + blockOverhead
}

type blockKey struct {
	seg *segment
	bi  int
}

type cachedBlock struct {
	key blockKey
	b   *block
}

// blockCache is a byte-bounded LRU. A key holds its segment, so an
// entry must not outlive the segment's last reference: segment.release
// calls drop.
type blockCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	m      map[blockKey]*list.Element // of cachedBlock
	lru    list.List                  // front = most recently used
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{budget: budget, m: make(map[blockKey]*list.Element)}
}

func (c *blockCache) get(k blockKey) *block {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(cachedBlock).b
}

// put inserts b and evicts from the cold end until the cache fits its
// budget again; a block larger than the whole budget evicts itself.
func (c *blockCache) put(k blockKey, b *block) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return // two readers missed together; the blocks are equal
	}
	c.m[k] = c.lru.PushFront(cachedBlock{key: k, b: b})
	c.account(k.seg, b.size())
	for c.bytes > c.budget {
		c.remove(c.lru.Back())
	}
}

// drop removes every block of seg, which has lost its last reference.
func (c *blockCache) drop(seg *segment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(cachedBlock).key.seg == seg {
			c.remove(el)
		}
		el = next
	}
}

func (c *blockCache) remove(el *list.Element) {
	cb := c.lru.Remove(el).(cachedBlock)
	delete(c.m, cb.key)
	c.account(cb.key.seg, -cb.b.size())
}

func (c *blockCache) account(seg *segment, delta int64) {
	c.bytes += delta
	seg.ctr.cacheBytes.Add(delta)
}
