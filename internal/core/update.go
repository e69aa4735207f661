package core

// The live mutation path: ApplyUpdate runs a SPARQL 1.1 Update request
// against a dataset's local tier — the store its queries read (see tier)
// — and then repairs every derived artifact incrementally: a copy of the
// published extraction index is adjusted by the net triple delta
// (extraction.ApplyDelta) instead of re-extracted, commit derives and
// publishes the rest exactly as a refresh does, and a schema.Diff-shaped
// event is published on the change feed.

import (
	"context"
	"fmt"

	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/update"
)

// UpdateResult reports what one applied update request changed.
type UpdateResult struct {
	// Dataset is the endpoint URL the update applied to.
	Dataset string `json:"dataset"`
	// Added and Removed count the net triple delta.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// Generation is the dataset's generation after the update; unchanged
	// when the update was a no-op.
	Generation uint64 `json:"generation"`
	// Seq is the change-feed sequence number of the published event; 0
	// for a no-op update (no event).
	Seq uint64 `json:"seq,omitempty"`
	// Diff is the schema-level consequence, when the dataset has an
	// extracted index and the update changed its summary.
	Diff *schema.Diff `json:"diff,omitempty"`
}

// Changes returns the instance's change feed: one event per applied
// update that changed anything, subscribable with replay.
func (h *HBOLD) Changes() *update.Feed { return h.feed }

// ApplyUpdate parses and applies a SPARQL Update request to url's local
// tier, maintains the dataset's derived artifacts incrementally, and
// publishes the change event. A dataset with no local tier — a remote
// endpoint with nothing committed over a replica, or an unknown URL — is
// refused: updates are never forwarded. A request that nets to no change
// (all inserts duplicate, all deletes absent) leaves the generation,
// caches and feed untouched.
func (h *HBOLD) ApplyUpdate(ctx context.Context, url, text string) (*UpdateResult, error) {
	u, err := sparql.ParseUpdate(text)
	if err != nil {
		return nil, err // syntax errors before any tier is opened
	}
	// the critical section spans triples and derived state: two updates of
	// one dataset adjust the index in turn, never the same copy of it — and
	// the tier is resolved inside it, so an update that waited out a first
	// refresh writes to the replica that refresh made the tier
	ds, err := h.known(url)
	if err != nil {
		return nil, err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	c, err := h.tier(url, false)
	if err != nil {
		return nil, err
	}
	lc, _ := c.(endpoint.LocalClient)
	be, ok := lc.Store.(store.Backend)
	if !ok {
		return nil, fmt.Errorf("core: %s has no writable local tier (a remote endpoint, or a read-only local store)", url)
	}
	d, err := update.Apply(ctx, be, u)
	if err != nil {
		return nil, err
	}
	prev := h.loaded(ds, url)
	res := &UpdateResult{
		Dataset:    url,
		Added:      len(d.Added),
		Removed:    len(d.Removed),
		Generation: prev.Generation,
	}
	if d.Empty() {
		return res, nil
	}
	now := h.Clock.Now()
	// Incremental maintenance of the derived artifacts: only datasets
	// with an extracted index have any; for the rest (a bare corpus
	// served before its first extraction) the triple tier alone changed.
	// ApplyDelta edits in place; readers hold the published index.
	var ix *extraction.Index
	if prev.index != nil {
		ix = prev.index.Clone()
		extraction.ApplyDelta(ix, be, d.Added, d.Removed, now)
	}
	st, diff, err := h.commit(ds, url, ix)
	if err != nil {
		return nil, err
	}
	res.Generation = st.Generation
	res.Diff = diff
	ev := h.feed.Publish(update.Event{
		Dataset:    url,
		Time:       now,
		Generation: st.Generation,
		Added:      len(d.Added),
		Removed:    len(d.Removed),
		Diff:       diff,
	})
	res.Seq = ev.Seq
	h.Metrics.Counter("hbold_updates_total",
		"SPARQL Update requests applied (no-ops excluded).").Inc()
	h.Metrics.Counter("hbold_update_triples_added_total",
		"Net triples added by SPARQL Update requests.").Add(float64(len(d.Added)))
	h.Metrics.Counter("hbold_update_triples_removed_total",
		"Net triples removed by SPARQL Update requests.").Add(float64(len(d.Removed)))
	return res, nil
}
