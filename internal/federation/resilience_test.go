package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/endpoint"
	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/store"
)

// httpSources exposes each partition over a real httptest protocol
// server, optionally wrapping one member's handler in mid (chaos). It
// returns the sources, a per-source request counter, and a cleanup func.
func httpSources(t *testing.T, parts []*store.Store, chaosIdx int, mid func(http.Handler) http.Handler) ([]*endpoint.Source, []*atomic.Int64, func()) {
	t.Helper()
	srcs := make([]*endpoint.Source, len(parts))
	hits := make([]*atomic.Int64, len(parts))
	servers := make([]*httptest.Server, len(parts))
	for i, p := range parts {
		hits[i] = &atomic.Int64{}
		var h http.Handler = &endpoint.Handler{Store: p}
		if i == chaosIdx && mid != nil {
			h = mid(h)
		}
		counter := hits[i]
		inner := h
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counter.Add(1)
			inner.ServeHTTP(w, r)
		}))
		c := endpoint.NewHTTPClient(servers[i].URL)
		srcs[i] = endpoint.NewSource(fmt.Sprintf("part%d", i), servers[i].URL, c)
	}
	return srcs, hits, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

const allRowsQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

// TestPartialOKMidStreamDeath is the tentpole acceptance scenario: three
// sources, one dying mid-stream (deterministic chaos cut). Default mode
// must surface the death through the stream's Err; partial mode must
// deliver every healthy-branch row and name the dead source.
func TestPartialOKMidStreamDeath(t *testing.T) {
	_, parts := unionAndParts(3)
	cut := faultinject.New(faultinject.Config{Seed: 11, CutRate: 1, CutAfter: 512})
	srcs, _, cleanup := httpSources(t, parts, 1, cut.Middleware)
	defer cleanup()
	ctx := context.Background()

	// healthy-branch row count, counted directly off the partitions
	wantHealthy := 0
	for i, p := range parts {
		if i != 1 {
			wantHealthy += p.Len()
		}
	}

	// default mode: the cut is fatal
	fed := New(srcs...)
	rs, err := fed.Stream(ctx, allRowsQuery)
	if err != nil {
		t.Fatalf("open failed before any row: %v", err)
	}
	n := 0
	for range rs.All() {
		n++
	}
	if rs.Err() == nil {
		t.Fatalf("default mode streamed %d rows with nil Err despite a mid-stream death", n)
	}

	// partial mode: healthy rows survive, the dead source is named
	fed2 := New(srcs...)
	rs2, p, err := fed2.StreamPartial(ctx, allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for range rs2.All() {
		rows++
	}
	if err := rs2.Err(); err != nil {
		t.Fatalf("partial stream Err = %v, want nil", err)
	}
	if rows < wantHealthy {
		t.Fatalf("partial mode delivered %d rows, want at least the %d healthy-branch rows", rows, wantHealthy)
	}
	inc := p.Incomplete()
	if len(inc) != 1 || inc[0] != "part1" {
		t.Fatalf("incomplete = %v, want [part1]", inc)
	}
	if !p.Degraded() {
		t.Fatal("partial with a dropped source must report degraded")
	}
	st := fed2.Stats().Sources[srcs[1].URL]
	if st.Dropped != 1 || st.Errors != 1 {
		t.Fatalf("dead source stats = %+v, want Dropped=1 Errors=1", st)
	}
}

func TestPartialRefusesOrderSensitiveShapes(t *testing.T) {
	_, parts := unionAndParts(2)
	fed := New(localSources(parts)...)
	ctx := context.Background()
	for _, q := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
	} {
		if _, _, err := fed.StreamPartial(ctx, q); err == nil {
			t.Fatalf("%s: partial mode accepted an order/dedup-sensitive shape", q)
		}
	}
}

func TestPartialAllOpenFailuresStillError(t *testing.T) {
	_, parts := unionAndParts(2)
	srcs, _, cleanup := httpSources(t, parts, -1, nil)
	cleanup() // every open fails: connection refused
	fed := New(srcs...)
	if _, _, err := fed.StreamPartial(context.Background(), allRowsQuery); err == nil {
		t.Fatal("partial mode fabricated a result with every branch dead at open")
	}
}

// TestBreakerZeroRequestsDuringOpenWindow: a member that answers 503
// trips its breaker; while the breaker is open, federated queries must
// not send the member a single HTTP request, and after the open window a
// probe must be re-admitted.
func TestBreakerZeroRequestsDuringOpenWindow(t *testing.T) {
	_, parts := unionAndParts(3)
	srcs, hits, cleanup := httpSources(t, parts, 1, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
		})
	})
	defer cleanup()
	ck := clock.NewSim(clock.Epoch)
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Failures: 2, OpenFor: 30 * time.Second, Clock: ck}, nil)
	for _, src := range srcs {
		src.Breaker = breakers.For(src.URL)
	}
	fed := New(srcs...)
	fed.SkipUnavailable = true
	ctx := context.Background()

	run := func() {
		t.Helper()
		res, err := fed.Query(ctx, allRowsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("no rows from healthy members")
		}
	}
	// two failures trip the breaker (each query = one 503 after the
	// client's zero retries)
	run()
	run()
	if breakers.For(srcs[1].URL).State() != resilience.Open {
		t.Fatalf("breaker after 2 failed fan-outs = %v, want open", breakers.For(srcs[1].URL).State())
	}
	before := hits[1].Load()
	for i := 0; i < 5; i++ {
		run()
	}
	if got := hits[1].Load(); got != before {
		t.Fatalf("tripped source received %d requests during the open window, want 0", got-before)
	}
	if st := fed.Stats().Sources[srcs[1].URL]; st.Tripped != 5 {
		t.Fatalf("Tripped = %d, want 5", st.Tripped)
	}
	// after the window, exactly one probe goes through
	ck.Advance(31 * time.Second)
	before = hits[1].Load()
	run()
	if got := hits[1].Load(); got != before+1 {
		t.Fatalf("half-open window sent %d probes, want 1", got-before)
	}
}

// TestHedgedOpenWins: the primary open stalls far beyond the hedge
// delay; the hedged second attempt must win and the merge must still
// deliver every row exactly once.
func TestHedgedOpenWins(t *testing.T) {
	_, parts := unionAndParts(1)
	var reqs atomic.Int64
	inner := &endpoint.Handler{Store: parts[0]}
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// first request stalls; the hedge (second request) serves. The
		// stall releases on test end (not r.Context()) because httptest
		// may not notice the canceled client until the handler returns.
		if reqs.Add(1) == 1 {
			select {
			case <-r.Context().Done():
			case <-done:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(done)
	src := endpoint.NewSource("slow", srv.URL, endpoint.NewHTTPClient(srv.URL))
	fed := New(src)
	fed.Hedge = true
	fed.HedgeAfter = 30 * time.Millisecond
	start := time.Now()
	res, err := fed.Query(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("hedged open took %v: the stalled primary gated the merge", elapsed)
	}
	if len(res.Rows) != parts[0].Len() {
		t.Fatalf("rows = %d, want %d", len(res.Rows), parts[0].Len())
	}
	st := fed.Stats().Sources[src.URL]
	if st.Hedged != 1 || st.HedgeWon != 1 {
		t.Fatalf("hedge stats = %+v, want Hedged=1 HedgeWon=1", st)
	}
}

// TestHedgeWastedWhenPrimaryWins: a hedge that fires while the primary
// is merely slow (not dead) must not duplicate rows, and counts as
// wasted.
func TestHedgeWastedWhenPrimaryWins(t *testing.T) {
	_, parts := unionAndParts(1)
	inner := &endpoint.Handler{Store: parts[0]}
	var reqs atomic.Int64
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1) == 1 {
			// slow but alive: slower than the hedge delay, faster than
			// the hedged attempt could possibly serve
			time.Sleep(80 * time.Millisecond)
		} else {
			select {
			case <-r.Context().Done():
			case <-done:
			case <-time.After(2 * time.Second):
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(done)
	src := endpoint.NewSource("slowish", srv.URL, endpoint.NewHTTPClient(srv.URL))
	fed := New(src)
	fed.Hedge = true
	fed.HedgeAfter = 10 * time.Millisecond
	res, err := fed.Query(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != parts[0].Len() {
		t.Fatalf("rows = %d, want %d (hedge must not duplicate or drop rows)", len(res.Rows), parts[0].Len())
	}
	st := fed.Stats().Sources[src.URL]
	if st.Hedged != 1 || st.HedgeWasted != 1 || st.HedgeWon != 0 {
		t.Fatalf("hedge stats = %+v, want Hedged=1 HedgeWasted=1", st)
	}
}

// TestSkipUnavailableRecordsStatsFirst pins the satellite fix: a source
// routed around under SkipUnavailable still records the attempt
// (Queries) and the outage (Unavailable) — before this fix the skip
// path lost the Queries/Elapsed accounting entirely.
func TestSkipUnavailableRecordsStatsFirst(t *testing.T) {
	_, parts := unionAndParts(2)
	srcs, _, cleanup := httpSources(t, parts, 1, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		})
	})
	defer cleanup()
	fed := New(srcs...)
	fed.SkipUnavailable = true
	res, err := fed.Query(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != parts[0].Len() {
		t.Fatalf("rows = %d, want the healthy member's %d", len(res.Rows), parts[0].Len())
	}
	st := fed.Stats().Sources[srcs[1].URL]
	if st.Queries != 1 || st.Unavailable != 1 {
		t.Fatalf("skipped source stats = %+v, want Queries=1 Unavailable=1", st)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("skipped source Elapsed = %v, want > 0", st.Elapsed)
	}
}

// TestBreakerSharedWithAsk: ASK fan-outs trip and honor the same
// breaker SELECT fan-outs do.
func TestBreakerSharedWithAsk(t *testing.T) {
	_, parts := unionAndParts(2)
	srcs, hits, cleanup := httpSources(t, parts, 0, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		})
	})
	defer cleanup()
	ck := clock.NewSim(clock.Epoch)
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Failures: 1, OpenFor: time.Minute, Clock: ck}, nil)
	for _, src := range srcs {
		src.Breaker = breakers.For(src.URL)
	}
	fed := New(srcs...)
	fed.SkipUnavailable = true
	ctx := context.Background()
	if _, err := fed.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if breakers.For(srcs[0].URL).State() != resilience.Open {
		t.Fatal("ASK failure did not trip the shared breaker")
	}
	before := hits[0].Load()
	if _, err := fed.Query(ctx, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if got := hits[0].Load(); got != before {
		t.Fatalf("tripped source saw %d ASK requests, want 0", got-before)
	}
}

// TestAllTrippedIsUnavailable: when every source's breaker is open the
// federation must answer ErrUnavailable, not an empty result.
func TestAllTrippedIsUnavailable(t *testing.T) {
	_, parts := unionAndParts(2)
	srcs := localSources(parts)
	ck := clock.NewSim(clock.Epoch)
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Failures: 1, OpenFor: time.Minute, Clock: ck}, nil)
	for _, src := range srcs {
		src.Breaker = breakers.For(src.URL)
		src.Breaker.Failure()
	}
	fed := New(srcs...)
	_, err := fed.Query(context.Background(), allRowsQuery)
	if !errors.Is(err, endpoint.ErrUnavailable) {
		t.Fatalf("all-tripped err = %v, want ErrUnavailable", err)
	}
	if err != nil && !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("err %q should mention unavailability", err)
	}
}
