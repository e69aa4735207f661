package core

// A dataset's local tier is the one store its queries read, its updates
// write and its index describes. tier resolves it, and the rule is stated
// there once: EndpointClient, Federation, ApplyUpdate and refresh all go
// through it, so there is no second copy for any of them to miss.
//
// With CorpusDir set the tier is persistent: a replica of the endpoint's
// statement set in a disk-backed store under CorpusDir, one data directory
// per endpoint, fed by every refresh's mirror. A restarted instance
// reopens a directory in O(segments) the first time the dataset is asked
// for and serves its queries, updates and refreshes from it with nothing
// connected — the instant-restart property experiment E20 measures.
//
// Known limitation: the mirror only inserts. A triple the upstream has
// dropped stays in the replica, and in the index extracted from it, until
// the directory is rebuilt.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/endpoint"
	"repro/internal/kv"
	"repro/internal/store/disk"
)

// ErrNoCorpusDir is returned by Corpus when the instance was built
// without a persistent corpus directory.
var ErrNoCorpusDir = fmt.Errorf("core: no corpus directory configured")

// tier resolves url's local tier, as the client that answers for it.
// With a corpus directory and a committed index — from this life or
// stored by the last — the tier is the replica. Otherwise it is a
// connected LocalClient's store. Otherwise there is none and the upstream
// client itself comes back: reads are forwarded to it, and an update,
// finding no store.Backend behind it, is refused. A URL the instance does
// not know resolves to an error and creates nothing.
//
// mirrored is a refresh's alone: it has just brought the replica up to
// date under the dataset's lock and is about to commit the index that
// makes it the tier for everyone else — who, during a first mirror, keep
// going upstream and never read a half-mirrored corpus.
func (h *HBOLD) tier(url string, mirrored bool) (endpoint.Client, error) {
	ds, err := h.known(url)
	if err != nil {
		return nil, err
	}
	if h.CorpusDir != "" && (mirrored || h.loaded(ds, url).index != nil) {
		r, err := h.openReplica(ds, url)
		if err != nil {
			return nil, err
		}
		// a LocalClient, so endpoint.Explainer works on disk too
		return endpoint.LocalClient{Store: r}, nil
	}
	if up := ds.upstream.Load(); up != nil {
		return *up, nil
	}
	return nil, errNoClient(url)
}

// ServedFromDisk reports whether url is served with nothing connected:
// the registry restored it as indexed and its tier is a populated replica
// — in which case a restart neither rebuilds nor re-extracts it.
func (h *HBOLD) ServedFromDisk(url string) bool {
	if e, ok := h.Registry.Get(url); !ok || !e.Indexed {
		return false
	}
	c, _ := h.tier(url, false)
	lc, _ := c.(endpoint.LocalClient)
	r, ok := lc.Store.(*disk.Store)
	return ok && r.Len() > 0
}

// Corpus returns the persistent corpus store for url, opening (or
// creating) its data directory on first use — for programmatic callers;
// request input reaches a replica only through tier. The store is shared
// and stays open until Close.
func (h *HBOLD) Corpus(url string) (*disk.Store, error) {
	if h.CorpusDir == "" {
		return nil, ErrNoCorpusDir
	}
	return h.openReplica(h.dataset(url), url)
}

// openReplica returns ds's replica, opening its data directory if this
// life has not yet. The directory name is a content hash of the URL:
// stable across restarts, filesystem-safe.
func (h *HBOLD) openReplica(ds *dataset, url string) (*disk.Store, error) {
	if r := ds.replica.Load(); r != nil {
		return r, nil
	}
	ds.open.Lock()
	defer ds.open.Unlock()
	if r := ds.replica.Load(); r != nil {
		return r, nil
	}
	hash := fnv.New64a()
	hash.Write([]byte(url))
	dir := filepath.Join(h.CorpusDir, fmt.Sprintf("ep-%016x", hash.Sum64()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r, err := disk.Open(dir, disk.Options{})
	if err != nil {
		return nil, err
	}
	ds.replica.Store(r)
	return r, nil
}

// closeReplicas flushes and closes every open replica, keeping the first
// error.
func (h *HBOLD) closeReplicas() error {
	var first error
	h.datasets.Range(func(url, ds any) bool {
		if r := ds.(*dataset).replica.Swap(nil); r != nil {
			if err := r.Close(); err != nil && first == nil {
				first = fmt.Errorf("core: closing corpus for %s: %w", url, err)
			}
		}
		return true
	})
	return first
}

func kvStat(field func(kv.Stats) float64) func(*disk.Store) float64 {
	return func(r *disk.Store) float64 { return field(r.KVStats()) }
}

// corpusFamilies is the persistent tier on /metrics: each family is one
// field of a replica, summed over the open ones.
var corpusFamilies = []struct {
	name, help string
	gauge      bool
	field      func(*disk.Store) float64
}{
	{"hbold_kv_wal_appends_total", "Batches appended to corpus write-ahead logs.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.WALAppends) })},
	{"hbold_kv_wal_bytes_total", "Payload bytes appended to corpus write-ahead logs.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.WALBytes) })},
	{"hbold_kv_wal_replayed_total", "WAL records replayed while opening corpus stores.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.WALReplayed) })},
	{"hbold_kv_flushes_total", "Memtable flushes across corpus stores.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.Flushes) })},
	{"hbold_kv_compactions_total", "Segment compactions across corpus stores.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.Compactions) })},
	{"hbold_kv_segments", "Live segment files across corpus stores.", true,
		kvStat(func(s kv.Stats) float64 { return float64(s.Segments) })},
	{"hbold_kv_segment_bytes", "Bytes in live segment files across corpus stores.", true,
		kvStat(func(s kv.Stats) float64 { return float64(s.SegmentBytes) })},
	{"hbold_kv_memtable_keys", "Keys in corpus memtables awaiting flush.", true,
		kvStat(func(s kv.Stats) float64 { return float64(s.MemtableKeys) })},
	{"hbold_kv_block_cache_hits_total", "Segment seeks answered from the decoded-block cache.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.BlockCacheHits) })},
	{"hbold_kv_block_cache_misses_total", "Segment seeks that read and indexed a block.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.BlockCacheMisses) })},
	{"hbold_kv_block_cache_bytes", "Bytes of the process-wide decoded-block cache held for corpus stores.", true,
		kvStat(func(s kv.Stats) float64 { return float64(s.BlockCacheBytes) })},
	{"hbold_kv_read_errors_total", "Segment block reads or decodes that failed.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.ReadErrors) })},
	{"hbold_kv_seeks_total", "Child seeks the merged cursors of corpus stores attempted.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.Seeks) })},
	{"hbold_kv_seeks_in_place_total", "Child seeks answered without moving: the child already stood at or past the target.", false,
		kvStat(func(s kv.Stats) float64 { return float64(s.SeeksInPlace) })},
	{"hbold_corpus_term_cache_hits_total", "Corpus term-dictionary cache hits.", false,
		func(r *disk.Store) float64 { hits, _ := r.CacheStats(); return float64(hits) }},
	{"hbold_corpus_term_cache_misses_total", "Corpus term-dictionary cache misses.", false,
		func(r *disk.Store) float64 { _, misses := r.CacheStats(); return float64(misses) }},
	{"hbold_corpus_open", "Open persistent corpus stores.", true,
		func(*disk.Store) float64 { return 1 }},
	{"hbold_corpus_triples", "Triples across open persistent corpus stores.", true,
		func(r *disk.Store) float64 { return float64(r.Len()) }},
}

// registerCorpusMetrics registers corpusFamilies. A scrape walks the
// dataset records once per family, so the families track replicas opened
// later; with no corpus directory they all read zero.
func (h *HBOLD) registerCorpusMetrics() {
	for _, f := range corpusFamilies {
		register := h.Metrics.CounterFunc
		if f.gauge {
			register = h.Metrics.GaugeFunc
		}
		register(f.name, f.help, func() float64 {
			var sum float64
			h.datasets.Range(func(_, ds any) bool {
				if r := ds.(*dataset).replica.Load(); r != nil {
					sum += f.field(r)
				}
				return true
			})
			return sum
		})
	}
}
