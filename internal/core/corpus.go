package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/endpoint"
	"repro/internal/kv"
	"repro/internal/store/disk"
)

// The persistent corpus tier: when CorpusDir is set, every successful
// extraction also mirrors the endpoint's full statement set into a
// disk-backed store under CorpusDir, one data directory per endpoint.
// A restarted instance reopens those directories in O(segments) and
// serves SPARQL over them immediately — no re-extraction, which is the
// instant-restart property experiment E20 measures.

// ErrNoCorpusDir is returned by Corpus when the instance was built
// without a persistent corpus directory.
var ErrNoCorpusDir = fmt.Errorf("core: no corpus directory configured")

// corpusPath maps an endpoint URL to its data directory. The name is a
// content hash of the URL: stable across restarts, filesystem-safe.
func (h *HBOLD) corpusPath(url string) string {
	hash := fnv.New64a()
	hash.Write([]byte(url))
	return filepath.Join(h.CorpusDir, fmt.Sprintf("ep-%016x", hash.Sum64()))
}

// Corpus returns the persistent corpus store for url, opening (or
// creating) its data directory on first use. The store is shared and
// stays open until Close.
func (h *HBOLD) Corpus(url string) (*disk.Store, error) {
	if h.CorpusDir == "" {
		return nil, ErrNoCorpusDir
	}
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	if ds, ok := h.corpora[url]; ok {
		return ds, nil
	}
	dir := h.corpusPath(url)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		return nil, err
	}
	h.corpora[url] = ds
	return ds, nil
}

// CorpusURLs lists the endpoints with an open corpus store.
func (h *HBOLD) CorpusURLs() []string {
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	out := make([]string, 0, len(h.corpora))
	for u := range h.corpora {
		out = append(out, u)
	}
	return out
}

// mirrorCorpus replicates url's statement set into its persistent
// corpus store, paging through the connected client. Insert dedups, so
// re-mirroring after a refresh only adds what changed.
func (h *HBOLD) mirrorCorpus(ctx context.Context, url string, c endpoint.Client) error {
	ds, err := h.Corpus(url)
	if err != nil {
		return err
	}
	if _, err := h.Extractor.MirrorCorpus(ctx, c, ds); err != nil {
		return fmt.Errorf("core: mirroring %s: %w", url, err)
	}
	return nil
}

// closeCorpora flushes and closes every open corpus store, keeping the
// first error.
func (h *HBOLD) closeCorpora() error {
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	var first error
	for url, ds := range h.corpora {
		if err := ds.Close(); err != nil && first == nil {
			first = fmt.Errorf("core: closing corpus for %s: %w", url, err)
		}
		delete(h.corpora, url)
	}
	return first
}

// corpusKVStats sums the storage-engine counters across open corpora.
func (h *HBOLD) corpusKVStats() kv.Stats {
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	var sum kv.Stats
	for _, ds := range h.corpora {
		st := ds.KVStats()
		sum.WALAppends += st.WALAppends
		sum.WALBytes += st.WALBytes
		sum.WALReplayed += st.WALReplayed
		sum.Flushes += st.Flushes
		sum.Compactions += st.Compactions
		sum.Segments += st.Segments
		sum.SegmentBytes += st.SegmentBytes
		sum.MemtableKeys += st.MemtableKeys
		sum.MemtableBytes += st.MemtableBytes
		sum.BlockCacheHits += st.BlockCacheHits
		sum.BlockCacheMisses += st.BlockCacheMisses
		sum.BlockCacheBytes += st.BlockCacheBytes
		sum.ReadErrors += st.ReadErrors
	}
	return sum
}

// corpusCacheStats sums the term-cache counters across open corpora.
func (h *HBOLD) corpusCacheStats() (hits, misses uint64) {
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	for _, ds := range h.corpora {
		hh, mm := ds.CacheStats()
		hits += hh
		misses += mm
	}
	return hits, misses
}

// corpusTriples sums Len across open corpora.
func (h *HBOLD) corpusTriples() int {
	h.corpusMu.Lock()
	defer h.corpusMu.Unlock()
	n := 0
	for _, ds := range h.corpora {
		n += ds.Len()
	}
	return n
}

// registerCorpusMetrics exposes the persistent tier on /metrics. The
// families read through h, so they track corpora opened later; with no
// corpus directory they all read zero.
func (h *HBOLD) registerCorpusMetrics() {
	r := h.Metrics
	r.CounterFunc("hbold_kv_wal_appends_total",
		"Batches appended to corpus write-ahead logs.",
		func() float64 { return float64(h.corpusKVStats().WALAppends) })
	r.CounterFunc("hbold_kv_wal_bytes_total",
		"Payload bytes appended to corpus write-ahead logs.",
		func() float64 { return float64(h.corpusKVStats().WALBytes) })
	r.CounterFunc("hbold_kv_wal_replayed_total",
		"WAL records replayed while opening corpus stores.",
		func() float64 { return float64(h.corpusKVStats().WALReplayed) })
	r.CounterFunc("hbold_kv_flushes_total",
		"Memtable flushes across corpus stores.",
		func() float64 { return float64(h.corpusKVStats().Flushes) })
	r.CounterFunc("hbold_kv_compactions_total",
		"Segment compactions across corpus stores.",
		func() float64 { return float64(h.corpusKVStats().Compactions) })
	r.GaugeFunc("hbold_kv_segments",
		"Live segment files across corpus stores.",
		func() float64 { return float64(h.corpusKVStats().Segments) })
	r.GaugeFunc("hbold_kv_segment_bytes",
		"Bytes in live segment files across corpus stores.",
		func() float64 { return float64(h.corpusKVStats().SegmentBytes) })
	r.GaugeFunc("hbold_kv_memtable_keys",
		"Keys in corpus memtables awaiting flush.",
		func() float64 { return float64(h.corpusKVStats().MemtableKeys) })
	r.CounterFunc("hbold_kv_block_cache_hits_total",
		"Segment seeks answered from the decoded-block cache.",
		func() float64 { return float64(h.corpusKVStats().BlockCacheHits) })
	r.CounterFunc("hbold_kv_block_cache_misses_total",
		"Segment seeks that read and indexed a block.",
		func() float64 { return float64(h.corpusKVStats().BlockCacheMisses) })
	r.GaugeFunc("hbold_kv_block_cache_bytes",
		"Bytes of the process-wide decoded-block cache held for corpus stores.",
		func() float64 { return float64(h.corpusKVStats().BlockCacheBytes) })
	r.CounterFunc("hbold_kv_read_errors_total",
		"Segment block reads or decodes that failed.",
		func() float64 { return float64(h.corpusKVStats().ReadErrors) })
	r.CounterFunc("hbold_corpus_term_cache_hits_total",
		"Corpus term-dictionary cache hits.",
		func() float64 { hits, _ := h.corpusCacheStats(); return float64(hits) })
	r.CounterFunc("hbold_corpus_term_cache_misses_total",
		"Corpus term-dictionary cache misses.",
		func() float64 { _, misses := h.corpusCacheStats(); return float64(misses) })
	r.GaugeFunc("hbold_corpus_open",
		"Open persistent corpus stores.",
		func() float64 { h.corpusMu.Lock(); defer h.corpusMu.Unlock(); return float64(len(h.corpora)) })
	r.GaugeFunc("hbold_corpus_triples",
		"Triples across open persistent corpus stores.",
		func() float64 { return float64(h.corpusTriples()) })
}
