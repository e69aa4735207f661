package kv

// Immutable sorted segment files. Layout:
//
//	[block]* [index] [footer]
//
// A block is a run of entries, cut at BlockBytes:
//
//	klen uvarint | key | vtag uvarint | value
//
// where vtag 0 marks a tombstone and vtag n>0 a value of n-1 bytes.
// The index lists (first key, offset, length) per block; the fixed
// footer points at it:
//
//	index offset u64 BE | index length u64 BE | entry count u64 BE |
//	index CRC32 u32 BE | magic "HBKVSEG1"
//
// Readers keep the index in memory, so opening a segment costs
// O(index), not O(data), and nothing is read ahead of the first lookup.
// Blocks are reached two ways:
//
//   - by seek (segment.get, segIter.seek — every point lookup and every
//     child a merged cursor has to move): through the process-wide cache of
//     decoded blocks (blockcache.go). A hit costs a map lookup and a
//     binary search over the block's entry offsets; a miss preads the
//     block, indexes it once and inserts it.
//   - by running off the end of the previous block (the rest of a long
//     scan, and all of a compaction, whose cursor starts before the
//     first block): pread and decoded entry by entry, never inserted. A
//     scan reads each block once, so caching it would only evict the
//     blocks that probes come back to — a 28 MB merge would flush the
//     readers' whole working set.
//
// Either way a block's bytes are written once, before anyone else can
// see them, and then belong to the garbage collector; no buffer is
// pooled or reused. The keys and values a reader is handed alias those
// bytes: they are read-only, and stay valid for as long as the holder
// keeps them — past the callback, the snapshot's release, the block's
// eviction and the segment's retirement — at the price of keeping that
// one block (≈ BlockBytes) alive. Code inside this package that keeps a
// key for long must copy it for that reason (segWriter.add).
//
// Segments are reference counted: the DB holds one reference, every
// snapshot one more; when the last drops the file handle closes and the
// segment's blocks leave the cache — compaction unlinks retired files
// immediately and live snapshots keep reading through the open
// descriptor.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"
)

var segMagic = []byte("HBKVSEG1")

const segFooterLen = 8 + 8 + 8 + 4 + 8

type blockMeta struct {
	first string
	off   uint64
	len   uint64
}

// readCounters are the read-path counters of one DB, bumped by its
// segments and reported by Stats.
type readCounters struct {
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheBytes   atomic.Int64 // bytes the block cache holds for this DB's segments
	readErrors   atomic.Uint64
	seeks        atomic.Uint64 // child seeks the DB's merged cursors attempted
	seeksInPlace atomic.Uint64 // and answered without moving
}

type segment struct {
	path   string
	f      *os.File
	size   int64
	blocks []blockMeta
	count  uint64
	refs   int32
	ctr    *readCounters // the owning DB's
}

func (s *segment) acquire() { atomic.AddInt32(&s.refs, 1) }

func (s *segment) release() {
	if atomic.AddInt32(&s.refs, -1) == 0 {
		s.f.Close()
		blocks.drop(s)
	}
}

// openSegment maps the index of the segment at path into memory. The
// returned segment carries one reference (the caller's).
func openSegment(path string, ctr *readCounters) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*segment, error) {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if fi.Size() < segFooterLen {
		return fail(fmt.Errorf("short segment (%d bytes)", fi.Size()))
	}
	foot := make([]byte, segFooterLen)
	if _, err := f.ReadAt(foot, fi.Size()-segFooterLen); err != nil {
		return fail(err)
	}
	if string(foot[28:36]) != string(segMagic) {
		return fail(fmt.Errorf("bad magic"))
	}
	idxOff := binary.BigEndian.Uint64(foot[0:8])
	idxLen := binary.BigEndian.Uint64(foot[8:16])
	count := binary.BigEndian.Uint64(foot[16:24])
	idxSum := binary.BigEndian.Uint32(foot[24:28])
	if idxOff+idxLen > uint64(fi.Size()) {
		return fail(fmt.Errorf("index out of bounds"))
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		return fail(err)
	}
	if crc32.ChecksumIEEE(idx) != idxSum {
		return fail(fmt.Errorf("index checksum mismatch"))
	}
	blocks, err := decodeIndex(idx)
	if err != nil {
		return fail(err)
	}
	return &segment{
		path: path, f: f, size: fi.Size(),
		blocks: blocks, count: count, refs: 1, ctr: ctr,
	}, nil
}

func decodeIndex(idx []byte) ([]blockMeta, error) {
	n, w := binary.Uvarint(idx)
	if w <= 0 {
		return nil, fmt.Errorf("bad block count")
	}
	idx = idx[w:]
	blocks := make([]blockMeta, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, w := binary.Uvarint(idx)
		if w <= 0 || uint64(len(idx)-w) < klen {
			return nil, fmt.Errorf("bad index key")
		}
		first := string(idx[w : w+int(klen)])
		idx = idx[w+int(klen):]
		off, w := binary.Uvarint(idx)
		if w <= 0 {
			return nil, fmt.Errorf("bad block offset")
		}
		idx = idx[w:]
		blen, w := binary.Uvarint(idx)
		if w <= 0 {
			return nil, fmt.Errorf("bad block length")
		}
		idx = idx[w:]
		blocks = append(blocks, blockMeta{first: first, off: off, len: blen})
	}
	return blocks, nil
}

// findBlock returns the index of the block that could contain key, or
// -1 when key sorts before the first block.
func (s *segment) findBlock(key string) int {
	return sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].first > key }) - 1
}

// readBlock preads block bi into a fresh buffer. A failure is counted
// and returned: the caller must not carry on as if the block were
// empty.
func (s *segment) readBlock(bi int) ([]byte, error) {
	buf := make([]byte, s.blocks[bi].len)
	if _, err := s.f.ReadAt(buf, int64(s.blocks[bi].off)); err != nil {
		return nil, s.failed(bi, err)
	}
	return buf, nil
}

// failed counts a read or decode failure in block bi and names it.
func (s *segment) failed(bi int, err error) error {
	s.ctr.readErrors.Add(1)
	return fmt.Errorf("kv: %s block %d: %w", s.path, bi, err)
}

// seekBlock returns block bi decoded, from the cache or into it.
func (s *segment) seekBlock(bi int) (*block, error) {
	key := blockKey{seg: s, bi: bi}
	if b := blocks.get(key); b != nil {
		s.ctr.cacheHits.Add(1)
		return b, nil
	}
	s.ctr.cacheMisses.Add(1)
	buf, err := s.readBlock(bi)
	if err != nil {
		return nil, err
	}
	b, err := indexBlock(buf)
	if err != nil {
		return nil, s.failed(bi, err)
	}
	blocks.put(key, b)
	return b, nil
}

// get returns the entry for key: its value, whether it is a tombstone,
// and whether it was found at all. The value aliases the block.
func (s *segment) get(key string) (val []byte, del, ok bool, err error) {
	bi := s.findBlock(key)
	if bi < 0 {
		return nil, false, false, nil
	}
	b, err := s.seekBlock(bi)
	if err != nil {
		return nil, false, false, err
	}
	i := b.search(key)
	if i == len(b.offs) || b.keyAt(i) != key {
		return nil, false, false, nil
	}
	_, val, del, _, err = decodeEntry(b.data[b.offs[i]:])
	return val, del, err == nil, err
}

// decodeEntry splits the first entry off buf. The key and the value
// alias buf.
func decodeEntry(buf []byte) (key string, val []byte, del bool, rest []byte, err error) {
	klen, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < klen {
		return "", nil, false, nil, fmt.Errorf("bad entry key")
	}
	buf = buf[w:]
	key = unsafe.String(unsafe.SliceData(buf), int(klen))
	buf = buf[klen:]
	vtag, w := binary.Uvarint(buf)
	if w <= 0 {
		return "", nil, false, nil, fmt.Errorf("bad entry vtag")
	}
	buf = buf[w:]
	if vtag == 0 {
		return key, nil, true, buf, nil
	}
	vlen := vtag - 1
	if uint64(len(buf)) < vlen {
		return "", nil, false, nil, fmt.Errorf("bad entry value")
	}
	return key, buf[:vlen], false, buf[vlen:], nil
}

// segIter is a cursor over the segment s, positioned by seek. It holds
// one block at a time; keys and values alias it.
type segIter struct {
	s     *segment
	block int    // index of the block buf is in; -1 before the first
	buf   []byte // remaining undecoded bytes of the current block
	k     string
	v     []byte
	del   bool
	// err is the read or decode failure that ended the cursor early. A
	// cursor that stops with err set has not seen the rest of the
	// segment: whoever needs all of it (compaction) must check.
	err error
}

// seek positions the cursor so that the following next() lands on the
// first key >= start.
func (it *segIter) seek(start string) {
	it.block, it.buf = it.s.findBlock(start), nil
	if it.block < 0 {
		return // before the first block: next() reads on from block 0
	}
	b, err := it.s.seekBlock(it.block)
	if err != nil {
		it.fail(err)
		return
	}
	if i := b.search(start); i < len(b.offs) {
		it.buf = b.data[b.offs[i]:]
	}
}

func (it *segIter) fail(err error) {
	it.err = err
	it.block, it.buf = len(it.s.blocks), nil
}

func (it *segIter) next() bool {
	for len(it.buf) == 0 {
		if it.block+1 >= len(it.s.blocks) {
			it.block = len(it.s.blocks)
			return false
		}
		buf, err := it.s.readBlock(it.block + 1)
		if err != nil {
			it.fail(err)
			return false
		}
		it.block++
		it.buf = buf
	}
	k, v, del, rest, err := decodeEntry(it.buf)
	if err != nil {
		it.fail(it.s.failed(it.block, err))
		return false
	}
	it.k, it.v, it.del = k, v, del
	it.buf = rest
	return true
}

func (it *segIter) key() string   { return it.k }
func (it *segIter) value() []byte { return it.v }
func (it *segIter) deleted() bool { return it.del }

// --- writing ---

type segWriter struct {
	path       string
	f          *os.File
	w          *bufio.Writer
	off        uint64
	blockStart uint64
	blockFirst string
	inBlock    bool
	blocks     []blockMeta
	count      uint64
	blockBytes int
	scratch    []byte
}

func newSegWriter(path string, blockBytes int) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &segWriter{path: path, f: f, w: bufio.NewWriterSize(f, 1<<16), blockBytes: blockBytes}, nil
}

// add appends one entry; keys must arrive in strictly increasing order.
func (sw *segWriter) add(k string, v []byte, del bool) error {
	if !sw.inBlock {
		// k may alias a block of a segment being merged; holding it until
		// finish() would keep every source block of the merge alive.
		sw.blockFirst = strings.Clone(k)
		sw.blockStart = sw.off
		sw.inBlock = true
	}
	b := sw.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(k)))
	b = append(b, k...)
	if del {
		b = binary.AppendUvarint(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(v))+1)
		b = append(b, v...)
	}
	sw.scratch = b[:0]
	if _, err := sw.w.Write(b); err != nil {
		return err
	}
	sw.off += uint64(len(b))
	sw.count++
	if sw.off-sw.blockStart >= uint64(sw.blockBytes) {
		sw.cutBlock()
	}
	return nil
}

func (sw *segWriter) cutBlock() {
	sw.blocks = append(sw.blocks, blockMeta{
		first: sw.blockFirst, off: sw.blockStart, len: sw.off - sw.blockStart,
	})
	sw.inBlock = false
}

// finish writes the index and footer, fsyncs, and reopens the file as a
// live segment carrying one reference.
func (sw *segWriter) finish(ctr *readCounters) (*segment, error) {
	if sw.inBlock {
		sw.cutBlock()
	}
	var idx []byte
	idx = binary.AppendUvarint(idx, uint64(len(sw.blocks)))
	for _, bm := range sw.blocks {
		idx = binary.AppendUvarint(idx, uint64(len(bm.first)))
		idx = append(idx, bm.first...)
		idx = binary.AppendUvarint(idx, bm.off)
		idx = binary.AppendUvarint(idx, bm.len)
	}
	if _, err := sw.w.Write(idx); err != nil {
		sw.abort()
		return nil, err
	}
	foot := make([]byte, segFooterLen)
	binary.BigEndian.PutUint64(foot[0:8], sw.off)
	binary.BigEndian.PutUint64(foot[8:16], uint64(len(idx)))
	binary.BigEndian.PutUint64(foot[16:24], sw.count)
	binary.BigEndian.PutUint32(foot[24:28], crc32.ChecksumIEEE(idx))
	copy(foot[28:36], segMagic)
	if _, err := sw.w.Write(foot); err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.w.Flush(); err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.f.Close(); err != nil {
		os.Remove(sw.path)
		return nil, err
	}
	seg, err := openSegment(sw.path, ctr)
	if err != nil {
		os.Remove(sw.path)
		return nil, err
	}
	return seg, nil
}

// abort discards the half-written file.
func (sw *segWriter) abort() {
	sw.f.Close()
	os.Remove(sw.path)
}
