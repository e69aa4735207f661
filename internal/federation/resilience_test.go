package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/endpoint"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/resilience"
	"repro/internal/sparql"
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
	reg := obs.NewRegistry()
	fed2.Metrics = reg
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
	if d, e := stat(reg, "dropped_total", srcs[1].URL), stat(reg, "errors_total", srcs[1].URL); d != 1 || e != 1 {
		t.Fatalf("dead source dropped = %v, errors = %v, want 1 and 1", d, e)
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
	reg := obs.NewRegistry()
	fed.Metrics = reg
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
	if n := stat(reg, "breaker_skipped_total", srcs[1].URL); n != 5 {
		t.Fatalf("breaker skips = %v, want 5", n)
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
	reg := obs.NewRegistry()
	fed.Metrics = reg
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
	if h, w := stat(reg, "hedged_total", src.URL), stat(reg, "hedge_won_total", src.URL); h != 1 || w != 1 {
		t.Fatalf("hedged = %v, won = %v, want 1 and 1", h, w)
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
	reg := obs.NewRegistry()
	fed.Metrics = reg
	res, err := fed.Query(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != parts[0].Len() {
		t.Fatalf("rows = %d, want %d (hedge must not duplicate or drop rows)", len(res.Rows), parts[0].Len())
	}
	h, wasted, won := stat(reg, "hedged_total", src.URL), stat(reg, "hedge_wasted_total", src.URL), stat(reg, "hedge_won_total", src.URL)
	if h != 1 || wasted != 1 || won != 0 {
		t.Fatalf("hedged = %v, wasted = %v, won = %v, want 1, 1, 0", h, wasted, won)
	}
}

// stallFirst answers from its store, except that the stream of its first
// call holds its first row (or its ASK answer) until the context ends;
// closed counts that stream's OnClose.
type stallFirst struct {
	st     *store.Store
	calls  atomic.Int32
	closed atomic.Int32
}

func (s *stallFirst) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := s.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func (s *stallFirst) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	if s.calls.Add(1) > 1 {
		return endpoint.LocalClient{Store: s.st}.Stream(ctx, query)
	}
	var streamErr error
	rs := sparql.NewRowSeq([]string{"s", "p", "o"}, func(func([]rdf.Term) bool) {
		<-ctx.Done()
		streamErr = ctx.Err()
	}, &streamErr)
	rs.OnClose(func() { s.closed.Add(1) })
	return rs, nil
}

// TestHedgedTeardownJoinsTheLoser: the consumer breaks after the first
// row while the hedge's loser is still waiting for its own. When Close
// returns, the loser's stream has been closed, and the goroutines are
// back at their baseline.
func TestHedgedTeardownJoinsTheLoser(t *testing.T) {
	_, parts := unionAndParts(1)
	member := &stallFirst{st: parts[0]}
	fed := New(endpoint.NewSource("stalls", "http://stalls/sparql", member))
	fed.Hedge = true
	fed.HedgeAfter = 10 * time.Millisecond
	baseline := runtime.NumGoroutine()
	rs, err := fed.Stream(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	first := false
	for range rs.All() {
		first = true
		break
	}
	rs.Close()
	if !first {
		t.Fatalf("no first row: %v", rs.Err())
	}
	if n := member.closed.Load(); n != 1 {
		t.Fatalf("the loser's stream was closed %d times when Close returned, want 1", n)
	}
	// a goroutine the fan-out joined may still be unwinding its last frame
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the query, %d after Close", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHedgedAsk: an ASK opens through the same legs as a SELECT, so a
// primary that stalls past HedgeAfter is answered by the hedge.
func TestHedgedAsk(t *testing.T) {
	_, parts := unionAndParts(1)
	src := endpoint.NewSource("stalls", "http://stalls/sparql", &stallFirst{st: parts[0]})
	fed := New(src)
	fed.Hedge = true
	fed.HedgeAfter = 20 * time.Millisecond
	reg := obs.NewRegistry()
	fed.Metrics = reg
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := fed.Query(ctx, `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask || !res.Boolean {
		t.Fatalf("ASK = %+v, want true", res)
	}
	if h, w := stat(reg, "hedged_total", src.URL), stat(reg, "hedge_won_total", src.URL); h != 1 || w != 1 {
		t.Fatalf("hedged = %v, won = %v, want 1 and 1", h, w)
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
	reg := obs.NewRegistry()
	fed.Metrics = reg
	res, err := fed.Query(context.Background(), allRowsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != parts[0].Len() {
		t.Fatalf("rows = %d, want the healthy member's %d", len(res.Rows), parts[0].Len())
	}
	if q, u := stat(reg, "queries_total", srcs[1].URL), stat(reg, "unavailable_total", srcs[1].URL); q != 1 || u != 1 {
		t.Fatalf("skipped source queries = %v, unavailable = %v, want 1 and 1", q, u)
	}
	if s := stat(reg, "elapsed_seconds_total", srcs[1].URL); s <= 0 {
		t.Fatalf("skipped source elapsed = %v s, want > 0", s)
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
