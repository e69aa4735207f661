package endpoint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// ErrUnavailable is returned when a simulated remote endpoint is down,
// reproducing the paper's observation that "a SPARQL Endpoint might be
// often not available ... it might work again after 1 or 2 days" (§3.1).
var ErrUnavailable = errors.New("endpoint: unavailable")

// Client is anything that can answer SPARQL queries: a local store, an
// HTTP endpoint, or a simulated remote. The context carries the caller's
// deadline and cancellation down to the wire: an extraction job stopped
// by the scheduler, a closed HTTP request, or a CLI timeout aborts the
// query instead of letting it run to completion.
type Client interface {
	// Query executes a SPARQL query and returns its materialized result.
	Query(ctx context.Context, query string) (*sparql.Result, error)
}

// Streamer is implemented by clients that can deliver results
// incrementally. Consumers should not type-assert for it directly; use
// the package-level Stream, which falls back to a materialized query for
// plain Clients.
type Streamer interface {
	// Stream executes a SPARQL query and returns its rows as a stream.
	// The caller must drain or Close the stream.
	Stream(ctx context.Context, query string) (*sparql.RowSeq, error)
}

// Explainer is implemented by clients that can profile a query instead
// of answering it: the query runs to completion, but what comes back is
// the compiled plan annotated with per-stage row counts and timings.
// Only in-process clients can explain — the SPARQL protocol has no
// EXPLAIN verb, so remote clients do not implement this.
type Explainer interface {
	// Explain executes the query with profiling and returns the
	// annotated plan instead of rows.
	Explain(ctx context.Context, query string) (*sparql.Explain, error)
}

// Stream returns a row stream from any client: natively when c
// implements Streamer, otherwise by materializing the result and
// streaming from it (still honoring ctx between rows).
func Stream(ctx context.Context, c Client, query string) (*sparql.RowSeq, error) {
	if s, ok := c.(Streamer); ok {
		return s.Stream(ctx, query)
	}
	res, err := c.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	return sparql.ResultSeq(res), nil
}

// Availability is a deterministic day-granular outage schedule. Starting
// from day zero the endpoint is up; on each up day an outage begins with
// probability OutageProb and lasts one or two days.
type Availability struct {
	mu         sync.Mutex
	rng        *rand.Rand
	alwaysDown bool
	OutageProb float64
	// schedule[i] reports whether the endpoint is up on day i; extended
	// lazily.
	schedule []bool
}

// NewAvailability builds a schedule with the given seed and outage
// probability. A probability of 0 yields an always-up endpoint.
func NewAvailability(seed int64, outageProb float64) *Availability {
	return &Availability{rng: rand.New(rand.NewSource(seed)), OutageProb: outageProb}
}

// AlwaysDown returns the schedule of a dead endpoint: every day is an
// outage, modelling the "no longer available" entries of the old DataHub
// list (§3.3).
func AlwaysDown() *Availability {
	return &Availability{alwaysDown: true}
}

// UpOn reports whether the endpoint is up on the given day index
// (days since clock.Epoch). Negative days are treated as day 0.
func (a *Availability) UpOn(day int) bool {
	if day < 0 {
		day = 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.alwaysDown {
		return false
	}
	for len(a.schedule) <= day {
		if a.rng.Float64() < a.OutageProb {
			// An outage starts today lasting 1 or 2 days, and the endpoint
			// "works again after 1 or 2 days": the recovery day is up, so
			// outages never chain into longer blackouts.
			for n := 1 + a.rng.Intn(2); n > 0; n-- {
				a.schedule = append(a.schedule, false)
			}
			a.schedule = append(a.schedule, true)
			continue
		}
		a.schedule = append(a.schedule, true)
	}
	return a.schedule[day]
}

// DayIndex converts a time to a day index relative to clock.Epoch.
func DayIndex(t time.Time) int {
	return int(t.Sub(clock.Epoch) / (24 * time.Hour))
}

// CostModel assigns a virtual wall-clock cost to each query, standing in
// for network latency and transfer time of a live endpoint. Costs are
// accounted, not slept, so experiments over hundreds of endpoints finish
// quickly while still reporting realistic totals.
type CostModel struct {
	BaseLatency time.Duration // per request
	PerRow      time.Duration // per result row
}

// DefaultCost approximates a public endpoint over the internet.
var DefaultCost = CostModel{BaseLatency: 150 * time.Millisecond, PerRow: 50 * time.Microsecond}

// Cost returns the virtual cost of a query yielding n rows.
func (c CostModel) Cost(rows int) time.Duration {
	return c.BaseLatency + time.Duration(rows)*c.PerRow
}

// Remote simulates one public SPARQL endpoint: a dataset behind the
// protocol with an availability schedule, an engine quirk profile and a
// virtual cost model.
type Remote struct {
	Name  string
	URL   string
	Store *store.Store

	Quirks *Quirks
	Avail  *Availability
	Cost   CostModel
	Clock  clock.Clock

	mu      sync.Mutex
	queries int
	virtual time.Duration
}

// NewRemote builds a simulated endpoint around a store. A nil avail means
// always available; a nil clock means the real clock.
func NewRemote(name, url string, st *store.Store, quirks *Quirks, avail *Availability, ck clock.Clock) *Remote {
	if ck == nil {
		ck = clock.Real{}
	}
	return &Remote{
		Name: name, URL: url, Store: st,
		Quirks: quirks, Avail: avail, Cost: DefaultCost, Clock: ck,
	}
}

// Up reports whether the endpoint is currently reachable.
func (r *Remote) Up() bool {
	if r.Avail == nil {
		return true
	}
	return r.Avail.UpOn(DayIndex(r.Clock.Now()))
}

// Query implements Client. It fails with ErrUnavailable on down days and
// otherwise evaluates the query under the endpoint's quirks, accounting
// virtual time. It is the materialized view of Stream, so cancellation
// is honored mid-query and cost accrues per row either way.
func (r *Remote) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := r.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// Stream implements Streamer. Availability is checked when the query
// arrives, the base latency is charged up front and the per-row transfer
// cost as each row crosses the simulated wire; canceling ctx mid-stream
// stops the evaluation within one row.
func (r *Remote) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	if !r.Up() {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, r.Name)
	}
	r.mu.Lock()
	r.queries++
	r.virtual += r.Cost.BaseLatency
	r.mu.Unlock()
	rs, err := EvaluateStream(ctx, r.Store, query, r.Quirks)
	if err != nil {
		return nil, err
	}
	return rs.Tap(func([]rdf.Term) {
		r.mu.Lock()
		r.virtual += r.Cost.PerRow
		r.mu.Unlock()
	}), nil
}

// Stats returns the number of queries served and the accumulated virtual
// time.
func (r *Remote) Stats() (queries int, virtual time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries, r.virtual
}

// LocalClient adapts a bare store to the Client interface (no protocol,
// no quirks); used when H-BOLD components query their own storage.
type LocalClient struct {
	Store store.Queryable
}

// Query implements Client by collecting the stream, so cancellation is
// honored mid-query even for in-process evaluation.
func (c LocalClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := c.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// Stream implements Streamer straight off the engine's row pipeline.
func (c LocalClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	return sparql.StreamExec(ctx, c.Store, query)
}

// Explain implements Explainer: the query executes against the local
// store with the profiler attached and the annotated plan comes back
// instead of rows.
func (c LocalClient) Explain(ctx context.Context, query string) (*sparql.Explain, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Explain(c.Store)
}
