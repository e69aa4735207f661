package core

// Tests for the rule a dataset's derived state follows: one immutable
// value per generation, one commit path, one critical section shared by
// updates, refreshes and the restart load.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/federation"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/sparql"
	"repro/internal/store"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPublishedStateIsImmutable: what Index, Summary and ClusterSchema
// handed out before an update still marshals to the same bytes after it
// (ApplyDelta ran on a copy, never on the value readers hold), and Index
// is the same pointer within a generation and a new one after.
func TestPublishedStateIsImmutable(t *testing.T) {
	h, url, _ := evolvingTool(t)
	ix, err := h.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := h.Summary(url)
	cs, _ := h.ClusterSchema(url)
	if again, _ := h.Index(url); again != ix {
		t.Fatal("Index returned two values within one generation")
	}
	before := [][]byte{mustJSON(t, ix), mustJSON(t, sum), mustJSON(t, cs)}

	if _, err := h.ApplyUpdate(context.Background(), url, `
PREFIX ex: <http://ex/>
INSERT DATA { ex:a2 a ex:Author ; ex:name "A2" . ex:b1 ex:by ex:a2 . ex:p1 a ex:Publisher }`); err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{ix, sum, cs} {
		if after := mustJSON(t, v); !bytes.Equal(after, before[i]) {
			t.Fatalf("value %d handed out before the update changed under its reader:\n got %s\nwant %s", i, after, before[i])
		}
	}
	next, err := h.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	if next == ix || bytes.Equal(mustJSON(t, next), before[0]) {
		t.Fatal("the update did not publish a new index")
	}
}

// TestConcurrentUpdatesOfOneDataset: two writers of one dataset adjust
// the index one after the other; run unserialized they read the same
// index, each apply their own delta, and the later Put loses the other's.
func TestConcurrentUpdatesOfOneDataset(t *testing.T) {
	h, url, st := evolvingTool(t)
	ctx := context.Background()
	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := fmt.Sprintf(`PREFIX ex: <http://ex/>
INSERT DATA { ex:w%d_%d a ex:Author ; ex:name "n" ; ex:wrote ex:b1 }`, w, i)
				if _, err := h.ApplyUpdate(ctx, url, text); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if g := h.Generation(url); g != 1+writers*rounds {
		t.Fatalf("generation = %d, want %d", g, 1+writers*rounds)
	}
	got, err := h.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := extraction.New().Extract(ctx, endpoint.LocalClient{Store: st}, url, h.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, fresh); !bytes.Equal(g, w) {
		t.Fatalf("index after concurrent updates diverges from re-extraction:\n got %s\nwant %s", g, w)
	}
}

// TestRefreshAndUpdateShareOneCriticalSection (run with -race): with a
// corpus directory a refresh mirrors pages into the replica updates write
// to and indexes it. Process and ApplyUpdate of one dataset run side by
// side — with the upstream connected, and in a restarted instance that has
// only the replica; afterwards the published index must equal a fresh
// extraction over what the dataset's queries read — no mirror page
// interleaved with an update's batch, and no refresh published an index
// that predates an update.
func TestRefreshAndUpdateShareOneCriticalSection(t *testing.T) {
	for _, restored := range []bool{false, true} {
		t.Run(fmt.Sprintf("restored=%v", restored), func(t *testing.T) {
			refreshRacesUpdates(t, restored)
		})
	}
}

func refreshRacesUpdates(t *testing.T, restored bool) {
	dir := t.TempDir()
	open := func() *HBOLD {
		h := openLife(t, dir)
		h.Extractor.PageSize = 16 // several mirror pages per refresh
		return h
	}
	url := "http://mirrored.example.org/sparql"
	upstream := store.New()
	for i := 0; i < 20; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		upstream.Add(rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(fmt.Sprintf("http://ex/C%d", i%3))))
		upstream.Add(rdf.NewTriple(s, rdf.NewIRI("http://ex/name"), rdf.NewLiteral(fmt.Sprint("n", i))))
		upstream.Add(rdf.NewTriple(s, rdf.NewIRI("http://ex/next"), rdf.NewIRI(fmt.Sprintf("http://ex/s%d", (i+1)%20))))
	}
	h := open()
	h.Registry.Add(registry.Entry{URL: url, AddedAt: clock.Epoch})
	h.Connect(url, endpoint.LocalClient{Store: upstream})
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	if restored {
		if err := h.DB.Flush(); err != nil {
			t.Fatal(err)
		}
		h.Close()
		h = open() // nothing connected: refreshes re-extract from the replica
	}
	t.Cleanup(h.Close)

	ctx := context.Background()
	const rounds = 150
	var refreshed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// updates outlast the refreshes: whatever a refresh got wrong is
		// then adjusted further, not repaired by a last quiet extraction
		for i := 0; i < rounds || !refreshed.Load(); i++ {
			text := fmt.Sprintf(`PREFIX ex: <http://ex/>
INSERT DATA { ex:u%d a ex:C%d ; ex:name "u" ; ex:next ex:s%d }`, i, i%4, i%20)
			if i%2 == 1 {
				// every insert is taken back, so the corpus stays small
				text = fmt.Sprintf(`DELETE WHERE { <http://ex/u%d> ?p ?o }`, i-1)
			}
			if _, err := h.ApplyUpdate(ctx, url, text); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer refreshed.Store(true)
		for i := 0; i < rounds/3; i++ {
			if err := h.Process(url); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	got, err := h.Index(url)
	if err != nil {
		t.Fatal(err)
	}
	client, err := h.EndpointClient(url)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.Extractor.Extract(ctx, client, url, h.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, fresh); !bytes.Equal(g, w) {
		t.Fatalf("index after concurrent refreshes and updates diverges from the corpus:\n got %s\nwant %s", g, w)
	}
}

// slowStart delays the first row of every stream by delay, and of the
// one stream stall names (by call number) a hundred times longer.
type slowStart struct {
	endpoint.LocalClient
	delay time.Duration
	calls atomic.Int32
	stall atomic.Int32 // the call that stalls; 0 means none
}

func (c *slowStart) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	d := c.delay
	if c.calls.Add(1) == c.stall.Load() {
		d = 100 * c.delay
	}
	select {
	case <-time.After(d):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return endpoint.Stream(ctx, c.LocalClient, query)
}

// TestHedgeDelayOutlivesTheFederation: the server builds one federation
// per request, so what a query learns about a source's first-row latency
// must reach the next request's client. Eight opens at ~2 ms teach the
// tracker; the next client's open stalls at 200 ms — far below the cost
// model's 300 ms seed, far above the learned delay — and must be hedged.
func TestHedgeDelayOutlivesTheFederation(t *testing.T) {
	h, url, st := evolvingTool(t)
	slow := &slowStart{LocalClient: endpoint.LocalClient{Store: st}, delay: 2 * time.Millisecond}
	h.Connect(url, slow)
	ctx := context.Background()
	const query = `SELECT ?s WHERE { ?s a <http://ex/Author> }`
	// hedges reads the source's process-lifetime hedge series
	hedges := func() (hedged, won float64) {
		for _, fam := range h.Metrics.Snapshot() {
			for _, se := range fam.Series {
				switch {
				case se.Labels["source"] != url:
				case fam.Name == "hbold_federation_hedged_total":
					hedged = se.Value
				case fam.Name == "hbold_federation_hedge_won_total":
					won = se.Value
				}
			}
		}
		return hedged, won
	}
	hedged0, won0 := hedges()

	first, err := h.Federation(nil, federation.All)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := first.Query(ctx, query); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := hedges(); n != hedged0 {
		t.Fatalf("learning opens hedged %v times", n-hedged0)
	}

	slow.stall.Store(slow.calls.Load() + 1)
	second, err := h.Federation(nil, federation.All)
	if err != nil {
		t.Fatal(err)
	}
	res, err := second.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if n, w := hedges(); n-hedged0 != 1 || w-won0 != 1 {
		t.Fatalf("hedged %v, won %v: the stalled open was not hedged on the first client's observations", n-hedged0, w-won0)
	}
}
