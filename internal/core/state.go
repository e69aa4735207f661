package core

// A dataset's derived state is one immutable State behind one pointer.
// After the one-time load of what a previous life stored, commit is the
// only writer: a refresh and an update both build their successor there
// and publish it whole, so a reader that loads the pointer once sees one
// generation's ETag, cache key and documents, never a mix of two.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/resilience"
	"repro/internal/schema"
	"repro/internal/store/disk"
)

// State is everything derived from one dataset at one generation. It is
// shared by every reader and never edited after publication.
type State struct {
	// URL is the dataset's endpoint URL.
	URL string
	// Generation is 0 until the dataset's first commit (a successful
	// extraction, or an update), incremented by every later one and
	// restored across a clean restart. HTTP ETags and most snapshot cache
	// entries are keyed on it.
	Generation uint64
	// Topology is the generation at which the inputs of the bundle view
	// last changed (see sameBundleTopology); its snapshot cache entries are
	// keyed on it, so they outlive updates that only move counts. A
	// restart starts it at Generation.
	Topology uint64
	// Vocabulary is what the index advertises to federated source
	// selection; empty when the dataset has no index.
	Vocabulary extraction.Vocabulary

	index    *extraction.Index
	summary  *schema.Summary
	clusters *cluster.Schema
}

// doc answers a reader with v, or — for a document the dataset lacks —
// with the error docstore itself would have given.
func doc[T any](st *State, coll string, v *T) (*T, error) {
	if v == nil {
		return nil, fmt.Errorf("%w: %s/%s", docstore.ErrNotFound, coll, st.URL)
	}
	return v, nil
}

// Index returns the extraction index.
func (st *State) Index() (*extraction.Index, error) { return doc(st, CollIndexes, st.index) }

// Summary returns the Schema Summary.
func (st *State) Summary() (*schema.Summary, error) { return doc(st, CollSummaries, st.summary) }

// ClusterSchema returns the precomputed (§3.2) Cluster Schema.
func (st *State) ClusterSchema() (*cluster.Schema, error) { return doc(st, CollClusters, st.clusters) }

// Schemas returns the two documents every visualization is drawn from.
func (st *State) Schemas() (*schema.Summary, *cluster.Schema, error) {
	sum, err := st.Summary()
	if err != nil {
		return nil, nil, err
	}
	cs, err := st.ClusterSchema()
	return sum, cs, err
}

// Explore starts an exploration session focused on a class (Figure 2
// step 2).
func (st *State) Explore(focusIRI string) (*schema.Exploration, error) {
	s, err := st.Summary()
	if err != nil {
		return nil, err
	}
	return schema.NewExploration(s, focusIRI)
}

// dataset is the process-lifetime record of one endpoint URL — the only
// per-URL state the instance keeps.
type dataset struct {
	// mu is the dataset's critical section: an update holds it from
	// before the triples change until its State is published, a refresh
	// around mirror + extract + commit. Readers never take it — a refresh
	// can hold it for a whole extraction — so everything below is
	// published the way state is: behind an atomic pointer.
	mu sync.Mutex
	// load decodes and publishes what a previous life stored, once. commit
	// passes through it before its first Put, so the decode never sees
	// half of a commit's documents and never publishes over one.
	load  sync.Once
	state atomic.Pointer[State]
	// upstream is the client Connect associated with the URL: the public
	// endpoint (or its stand-in) a refresh reads from. Nil for a dataset
	// restored from disk with nothing connected.
	upstream atomic.Pointer[endpoint.Client]
	// replica is the dataset's disk store under CorpusDir once opened;
	// open serializes the opening.
	replica atomic.Pointer[disk.Store]
	open    sync.Mutex
	// hedge learns the endpoint's first-row latencies across federated
	// queries, with the lifetime the circuit breaker has.
	hedge *resilience.HedgeDelay
}

// dataset returns url's record, creating it on first use.
func (h *HBOLD) dataset(url string) *dataset {
	if ds, ok := h.datasets.Load(url); ok {
		return ds.(*dataset)
	}
	ds, _ := h.datasets.LoadOrStore(url, &dataset{hedge: resilience.NewHedgeDelay(0)})
	return ds.(*dataset)
}

// known returns url's record if the instance knows the dataset — a
// client is connected for it, a corpus was opened for it, or the document
// store holds its state. A URL that is none of these (it may be arbitrary
// request input) gets the error every path answers it with, no record,
// and leaves nothing behind.
func (h *HBOLD) known(url string) (*dataset, error) {
	if ds, ok := h.datasets.Load(url); ok {
		return ds.(*dataset), nil
	}
	if !h.stored(url) {
		return nil, errNoClient(url)
	}
	return h.dataset(url), nil
}

func errNoClient(url string) error { return fmt.Errorf("core: no client connected for %s", url) }

// State returns the dataset's published state: a map lookup and a
// pointer load, after the first read of a life has decoded what the last
// one stored. An unknown URL gets an empty State.
func (h *HBOLD) State(url string) *State {
	ds, err := h.known(url)
	if err != nil {
		return &State{URL: url}
	}
	return h.loaded(ds, url)
}

// stored reports whether the document store holds anything for url: an
// index (commit writes summary and clusters with it) or a bare generation.
func (h *HBOLD) stored(url string) bool {
	return h.DB.Collection(CollIndexes).Has(url) || h.DB.Collection(CollGeneration).Has(url)
}

// loaded returns the published state, first decoding and publishing the
// stored documents if this life has not yet. An absent (or undecodable)
// document leaves its field nil, which readers report as not found; a
// directory written before the generation was stored opens at 0.
func (h *HBOLD) loaded(ds *dataset, url string) *State {
	ds.load.Do(func() {
		st := &State{URL: url}
		h.DB.Collection(CollGeneration).Get(url, &st.Generation) // absent: generation 0
		st.Topology = st.Generation
		decode(h.DB, CollIndexes, url, &st.index)
		decode(h.DB, CollSummaries, url, &st.summary)
		decode(h.DB, CollClusters, url, &st.clusters)
		if st.index != nil {
			st.Vocabulary = st.index.Vocabulary()
		}
		if st.summary != nil {
			st.summary.Reindex() // shared from here on: no lazy index build
		}
		ds.state.Store(st)
	})
	return ds.state.Load()
}

func decode[T any](db *docstore.DB, coll, url string, out **T) {
	var v T
	if db.Collection(coll).Get(url, &v) == nil {
		*out = &v
	}
}

// commit makes ix the dataset's index at the next generation: it derives
// the Schema Summary and the Cluster Schema (server-side, per §3.2; the
// partition is reused while the class graph stands, see cluster.Build),
// records what changed against the published summary, persists the
// documents with the generation beside them, carries the topology epoch
// forward when the bundle's inputs are unchanged, publishes the new State
// and drops every cached snapshot keyed on an epoch it no longer has. A
// nil ix (an update to a never-extracted corpus) advances the generation
// alone. Callers hold ds.mu and hand over ix: it becomes part of a
// published State here.
func (h *HBOLD) commit(ds *dataset, url string, ix *extraction.Index) (*State, *schema.Diff, error) {
	prev := h.loaded(ds, url)
	next := *prev
	next.Generation++
	var diff *schema.Diff
	if ix != nil {
		s := schema.Build(ix)
		cs, err := cluster.Build(s, cluster.Options{Seed: h.Seed})
		if err != nil {
			return nil, nil, err
		}
		// §3.1: sources evolve, which is why extraction re-runs at all
		if prev.summary != nil {
			if d := schema.Compare(prev.summary, s); !d.Unchanged() {
				diff = d
				if err := h.DB.Collection(CollDiffs).Put(url, d); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := errors.Join(
			h.DB.Collection(CollIndexes).Put(url, ix),
			h.DB.Collection(CollSummaries).Put(url, s),
			h.DB.Collection(CollClusters).Put(url, cs),
		); err != nil {
			return nil, nil, err
		}
		next.index, next.summary, next.clusters, next.Vocabulary = ix, s, cs, ix.Vocabulary()
	}
	if !sameBundleTopology(prev, &next) {
		next.Topology = next.Generation
	}
	if err := h.DB.Collection(CollGeneration).Put(url, next.Generation); err != nil {
		return nil, nil, err
	}
	ds.state.Store(&next)
	h.Cache.InvalidateBefore(url, next.Generation, next.Topology)
	return &next, diff, nil
}

// sameBundleTopology reports whether a and b give viz.BundleView the same
// inputs, compared field by field: the cluster order with labels, each
// cluster's member order with the members' class labels, and the
// summary's arcs as (From, To) in order (plus the dataset names the
// document prints). Instance and link counts are not among them — the
// bundle places leaves by hierarchy order alone — so an update that only
// moves counts leaves the bundle's bytes, and its cache entries, alone.
func sameBundleTopology(a, b *State) bool {
	sa, sb, ca, cb := a.summary, b.summary, a.clusters, b.clusters
	if sa == nil || sb == nil || ca == nil || cb == nil {
		return false
	}
	if sa.Dataset != sb.Dataset || ca.Dataset != cb.Dataset ||
		len(ca.Clusters) != len(cb.Clusters) || len(sa.Edges) != len(sb.Edges) {
		return false
	}
	for i := range ca.Clusters {
		x, y := &ca.Clusters[i], &cb.Clusters[i]
		if x.Label != y.Label || !slices.Equal(x.Classes, y.Classes) {
			return false
		}
		for _, c := range x.Classes {
			nx, okX := sa.NodeByIRI(c)
			ny, okY := sb.NodeByIRI(c)
			if okX != okY || nx.Label != ny.Label {
				return false
			}
		}
	}
	for i := range sa.Edges {
		if sa.Edges[i].From != sb.Edges[i].From || sa.Edges[i].To != sb.Edges[i].To {
			return false
		}
	}
	return true
}
