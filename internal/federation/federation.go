// Package federation turns N SPARQL endpoints into one: a Client that
// implements the same endpoint.Client/endpoint.Streamer surface as a
// single endpoint, fanning each query out to its member sources and
// merging the resulting row streams incrementally (paper §1: the hybrid
// landscape is many independent endpoints; the extracted indexes are what
// lets a tool route queries instead of blind-broadcasting them).
//
// The merge is a k-way interleave over bounded per-branch buffers: every
// member evaluates concurrently under its own context derived from the
// caller's, rows surface in completion order, and the whole fan-out is
// torn down — all branch contexts canceled, all goroutines joined — on
// the first fatal branch error, on consumer Close, or when a merged
// LIMIT is satisfied. DISTINCT queries deduplicate on the merge with the
// same binding key the engines use, so a federated DISTINCT equals a
// single-endpoint DISTINCT over the union corpus row-for-row. ORDER BY
// queries switch the merge to an ordered k-way heap merge: each branch
// is locally sorted by the member engine, so popping the least head row
// re-establishes the global order — and makes ORDER BY + LIMIT return
// the true global top-N rather than the first N rows to complete.
// Queries fan-out cannot answer faithfully are refused up front:
// GROUP BY/aggregates (members would aggregate their partitions
// independently), OFFSET (each member would skip rows independently),
// and ORDER BY on variables the SELECT list drops (the merge orders by
// projected rows only).
//
// Source selection runs before fan-out: under IndexPrune (and
// CostOrdered, which additionally opens cheap sources first) the client
// consults each source's extracted index and skips sources that provably
// cannot contribute — their vocabulary lacks a predicate or class every
// solution must match (sparql.Footprint). A missing class is always
// provable (class enumeration sees every rdf:type statement); a missing
// predicate is provable only when the index carries the full-corpus
// predicate scan, so vocabularies without it (extraction.Vocabulary's
// PredicatesComplete is false) never prune on predicates — a source
// whose only matches sit on untyped subjects keeps its rows. Sources
// without a usable index deterministically fall back to being queried,
// so pruning can only remove provable non-contributors, never answers.
package federation

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/obs"
	"repro/internal/sparql"
)

// Policy selects how the federation chooses sources for a query.
type Policy int

const (
	// All fans out to every available source.
	All Policy = iota
	// IndexPrune skips sources whose extracted index proves they cannot
	// contribute rows to the query.
	IndexPrune
	// CostOrdered prunes like IndexPrune and additionally opens sources
	// in ascending cost-model order, so first rows tend to come from the
	// cheapest source.
	CostOrdered
)

// String returns the policy's wire name (the server's policy= values).
func (p Policy) String() string {
	switch p {
	case IndexPrune:
		return "prune"
	case CostOrdered:
		return "cost"
	default:
		return "all"
	}
}

// ParsePolicy parses a wire name back into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "all":
		return All, nil
	case "prune":
		return IndexPrune, nil
	case "cost":
		return CostOrdered, nil
	}
	return All, fmt.Errorf("federation: unknown policy %q (want all, prune, or cost)", s)
}

// DefaultBuffer is the per-branch row buffer of the merge: deep enough
// that a momentarily slow consumer does not stall every producer, small
// enough that abandoning the stream wastes at most this many rows per
// branch.
const DefaultBuffer = 16

// SourceStats is the per-source accounting one federation accumulates.
type SourceStats struct {
	// Queries counts fan-outs that actually reached the source.
	Queries int `json:"queries"`
	// Rows counts rows the source delivered into the merge.
	Rows int64 `json:"rows"`
	// Errors counts fatal branch failures attributed to the source.
	Errors int `json:"errors"`
	// Unavailable counts openings skipped because the source was down.
	Unavailable int `json:"unavailable"`
	// Pruned counts queries source selection proved the source could not
	// contribute to.
	Pruned int `json:"pruned"`
	// Tripped counts fan-outs that skipped the source because its circuit
	// breaker was open — outages the federation rode out at zero request
	// cost.
	Tripped int `json:"tripped"`
	// Hedged counts opens where the first attempt was slow enough that a
	// hedged second attempt launched.
	Hedged int `json:"hedged"`
	// HedgeWon counts hedged opens the second attempt won.
	HedgeWon int `json:"hedgeWon"`
	// HedgeWasted counts hedged opens where the first attempt delivered
	// before the hedge — the hedge's request was pure overhead.
	HedgeWasted int `json:"hedgeWasted"`
	// Dropped counts branch failures dropped (rather than made fatal)
	// under partial-result mode.
	Dropped int `json:"dropped"`
	// FirstRow is the open-to-first-row latency of the most recent query.
	FirstRow time.Duration `json:"firstRowNs"`
	// Elapsed is the cumulative wall time spent streaming from the source.
	Elapsed time.Duration `json:"elapsedNs"`
}

// Client federates queries over a set of sources. It implements
// endpoint.Client and endpoint.Streamer, so anything that can point at
// one endpoint — core, the HTTP query API, the CLI, extraction — can
// point at N through it unchanged. The zero value is unusable; construct
// with New. Fields must be configured before the first query and not
// mutated afterwards; queries themselves may run concurrently.
type Client struct {
	// Policy selects sources per query; default All.
	Policy Policy
	// Vocabulary answers what the endpoint at url advertises, for
	// IndexPrune/CostOrdered — per source per query, so make it a lookup.
	// ok false means "no usable index": the source stays in the fan-out.
	// nil disables pruning (every available source is queried).
	Vocabulary func(url string) (v extraction.Vocabulary, ok bool)
	// SkipUnavailable routes around sources that report
	// endpoint.ErrUnavailable when the stream opens, instead of failing
	// the whole federated query. Sources with an Up probe are skipped
	// before fan-out either way.
	SkipUnavailable bool
	// Hedge enables hedged stream opens: when a branch's first row has
	// not arrived within the source's hedge delay (the p90 of its
	// observed open-to-first-row latencies, seeded from the cost model
	// before any observation exists), a second attempt opens and
	// whichever delivers first wins; the loser is canceled. Tail-slow
	// opens stop gating the merge at the price of ~10% extra opens.
	Hedge bool
	// HedgeAfter, when > 0, fixes the hedge delay instead of deriving it
	// per source — for tests and benchmarks that need a deterministic
	// trigger.
	HedgeAfter time.Duration
	// Metrics, when set, mirrors every SourceStats mutation into
	// registry-backed, per-source labeled series — promoting the
	// instance-local accounting into process-lifetime observability that
	// outlives this client. nil disables mirroring.
	Metrics *obs.Registry
	// Clock stamps Stats snapshots; nil means the wall clock.
	Clock clock.Clock

	sources []*endpoint.Source

	mu    sync.Mutex
	stats map[string]*SourceStats

	fmOnce sync.Once
	fm     *fedMetrics
}

// fedMetrics are the registry handles the per-source accounting mirrors
// into, one labeled series per source URL.
type fedMetrics struct {
	queries     *obs.CounterVec
	rows        *obs.CounterVec
	errors      *obs.CounterVec
	unavailable *obs.CounterVec
	pruned      *obs.CounterVec
	tripped     *obs.CounterVec
	hedged      *obs.CounterVec
	hedgeWon    *obs.CounterVec
	hedgeWasted *obs.CounterVec
	dropped     *obs.CounterVec
	firstRow    *obs.GaugeVec
	elapsed     *obs.CounterVec
	degraded    *obs.Counter
}

func newFedMetrics(r *obs.Registry) *fedMetrics {
	return &fedMetrics{
		queries:     r.CounterVec("hbold_federation_queries_total", "Fan-outs that reached the source.", "source"),
		rows:        r.CounterVec("hbold_federation_rows_total", "Rows the source delivered into the merge.", "source"),
		errors:      r.CounterVec("hbold_federation_errors_total", "Fatal branch failures attributed to the source.", "source"),
		unavailable: r.CounterVec("hbold_federation_unavailable_total", "Openings skipped because the source was down.", "source"),
		pruned:      r.CounterVec("hbold_federation_pruned_total", "Queries source selection proved the source could not contribute to.", "source"),
		tripped:     r.CounterVec("hbold_federation_breaker_skipped_total", "Fan-outs skipped because the source's circuit breaker was open.", "source"),
		hedged:      r.CounterVec("hbold_federation_hedged_total", "Stream opens where a hedged second attempt launched.", "source"),
		hedgeWon:    r.CounterVec("hbold_federation_hedge_won_total", "Hedged opens the second attempt won.", "source"),
		hedgeWasted: r.CounterVec("hbold_federation_hedge_wasted_total", "Hedged opens the first attempt won anyway.", "source"),
		dropped:     r.CounterVec("hbold_federation_dropped_total", "Branch failures dropped under partial-result mode.", "source"),
		firstRow:    r.GaugeVec("hbold_federation_first_row_seconds", "Open-to-first-row latency of the source's most recent query.", "source"),
		elapsed:     r.CounterVec("hbold_federation_elapsed_seconds_total", "Cumulative wall time spent streaming from the source.", "source"),
		degraded:    r.Counter("hbold_federation_degraded_queries_total", "Federated queries that returned an incomplete result under partial-result mode."),
	}
}

// New builds a federated client over the given sources.
func New(sources ...*endpoint.Source) *Client {
	return &Client{
		sources: sources,
		stats:   make(map[string]*SourceStats, len(sources)),
	}
}

// hedgeDelay returns when a hedged second attempt for src should launch:
// the fixed HedgeAfter when configured, otherwise the p90 first-row
// latency src.Hedge has learned (seeded at twice the cost model's base
// latency — the pre-observation expectation of "slower than this is
// tail-slow").
func (f *Client) hedgeDelay(src *endpoint.Source) time.Duration {
	if f.HedgeAfter > 0 {
		return f.HedgeAfter
	}
	seed := 2 * src.Cost.BaseLatency
	if seed <= 0 {
		seed = 2 * endpoint.DefaultCost.BaseLatency
	}
	return src.Hedge.Delay(seed)
}

// Sources returns the member sources, in configuration order.
func (f *Client) Sources() []*endpoint.Source {
	out := make([]*endpoint.Source, len(f.sources))
	copy(out, f.sources)
	return out
}

// StatsSnapshot is a point-in-time copy of the per-source accounting.
// CapturedAt is the client clock's reading at snapshot time, so callers
// racing with an active stream (and dashboards sampling repeatedly) can
// order samples.
type StatsSnapshot struct {
	CapturedAt time.Time              `json:"capturedAt"`
	Sources    map[string]SourceStats `json:"sources"`
}

// Stats returns a timestamped snapshot of the per-source accounting,
// keyed by source URL. Sources never touched by any query are absent.
func (f *Client) Stats() StatsSnapshot {
	ck := f.Clock
	if ck == nil {
		ck = clock.Real{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := StatsSnapshot{CapturedAt: ck.Now(), Sources: make(map[string]SourceStats, len(f.stats))}
	for url, st := range f.stats {
		out.Sources[url] = *st
	}
	return out
}

func (f *Client) bump(src *endpoint.Source, fn func(*SourceStats)) {
	f.mu.Lock()
	st, ok := f.stats[src.URL]
	if !ok {
		st = &SourceStats{}
		f.stats[src.URL] = st
	}
	before := *st
	fn(st)
	after := *st
	f.mu.Unlock()
	f.mirror(src.URL, before, after)
}

// mirror forwards the delta of one accounting mutation into the registry,
// outside the stats mutex (registry updates are atomic).
func (f *Client) mirror(url string, before, after SourceStats) {
	if f.Metrics == nil {
		return
	}
	f.fmOnce.Do(func() { f.fm = newFedMetrics(f.Metrics) })
	addInt := func(v *obs.CounterVec, d int64) {
		if d > 0 {
			v.With(url).Add(float64(d))
		}
	}
	addInt(f.fm.queries, int64(after.Queries-before.Queries))
	addInt(f.fm.rows, after.Rows-before.Rows)
	addInt(f.fm.errors, int64(after.Errors-before.Errors))
	addInt(f.fm.unavailable, int64(after.Unavailable-before.Unavailable))
	addInt(f.fm.pruned, int64(after.Pruned-before.Pruned))
	addInt(f.fm.tripped, int64(after.Tripped-before.Tripped))
	addInt(f.fm.hedged, int64(after.Hedged-before.Hedged))
	addInt(f.fm.hedgeWon, int64(after.HedgeWon-before.HedgeWon))
	addInt(f.fm.hedgeWasted, int64(after.HedgeWasted-before.HedgeWasted))
	addInt(f.fm.dropped, int64(after.Dropped-before.Dropped))
	if after.FirstRow != before.FirstRow {
		f.fm.firstRow.With(url).Set(after.FirstRow.Seconds())
	}
	if d := after.Elapsed - before.Elapsed; d > 0 {
		f.fm.elapsed.With(url).Add(d.Seconds())
	}
}

// selectSources applies the availability probe, the selection policy and
// the per-source circuit breaker, in that order — a pruned source
// provably cannot contribute, so it must not consume the breaker's
// half-open probe slot. tripped counts sources the breaker held out, so
// the caller can distinguish "everything is broken" from "everything was
// pruned" when the selection comes back empty. Under partial-result mode
// an unavailable or tripped source is recorded as incomplete: its rows
// are missing from the merge.
func (f *Client) selectSources(q *sparql.Query, partial *Partial) (selected []*endpoint.Source, tripped int) {
	var preds, classes []string
	if f.Policy != All {
		preds, classes = sparql.Footprint(q)
	}
	selected = make([]*endpoint.Source, 0, len(f.sources))
	for _, src := range f.sources {
		if !src.Available() {
			f.bump(src, func(st *SourceStats) { st.Unavailable++ })
			partial.drop(src.Label())
			continue
		}
		if f.Policy != All && f.Vocabulary != nil && len(preds)+len(classes) > 0 {
			if v, ok := f.Vocabulary(src.URL); ok && !v.CanAnswer(preds, classes) {
				f.bump(src, func(st *SourceStats) { st.Pruned++ })
				continue
			}
		}
		if !src.Breaker.Allow() {
			f.bump(src, func(st *SourceStats) { st.Tripped++ })
			partial.drop(src.Label())
			tripped++
			continue
		}
		selected = append(selected, src)
	}
	if f.Policy == CostOrdered {
		sort.SliceStable(selected, func(i, j int) bool {
			return selected[i].Cost.BaseLatency < selected[j].Cost.BaseLatency
		})
	}
	return selected, tripped
}

// Query implements endpoint.Client by collecting the merged stream.
func (f *Client) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := f.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

// Partial is the accounting of one partial-result query: which selected
// sources failed and were dropped from the merge instead of failing it.
// Read it only after the merged stream ends (or is closed) — drops can
// still be recorded while rows flow.
type Partial struct {
	mu      sync.Mutex
	dropped []string
}

func (p *Partial) drop(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dropped = append(p.dropped, label)
	p.mu.Unlock()
}

// Incomplete returns the labels of the sources whose results are missing
// from the merged stream, sorted; empty means the result is complete.
func (p *Partial) Incomplete() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]string, len(p.dropped))
	copy(out, p.dropped)
	p.mu.Unlock()
	sort.Strings(out)
	return out
}

// Degraded reports whether any source was dropped.
func (p *Partial) Degraded() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dropped) > 0
}

// Refusal is the error for a query whose shape a same-query fan-out
// cannot answer faithfully (CONSTRUCT, aggregates, OFFSET, an ORDER BY
// key the projection drops, and ORDER BY or DISTINCT under partial
// results). It is the request that is wrong, not a source: the HTTP
// layer matches it with errors.As and answers 400 where any other open
// failure is a 502.
type Refusal string

func (r Refusal) Error() string { return string(r) }

// StreamPartial is Stream in partial-result mode: a failing branch —
// down at open, erroring at open after retries, or dying mid-stream —
// is dropped from the merge instead of failing it, and the returned
// Partial names every dropped source so the caller can report an
// incomplete result honestly rather than not at all. A query whose
// semantics a silent drop would corrupt is refused: ORDER BY (a dropped
// branch breaks the global-order guarantee mid-stream) and
// DISTINCT/REDUCED (rows already emitted may owe their dedup outcome to
// a branch that later vanished). All selected sources failing at open is
// still an error — partial mode degrades results, it does not fabricate
// empty ones.
func (f *Client) StreamPartial(ctx context.Context, query string) (*sparql.RowSeq, *Partial, error) {
	p := &Partial{}
	rs, err := f.stream(ctx, query, p)
	if err != nil {
		return nil, nil, err
	}
	return rs, p, nil
}

// Stream implements endpoint.Streamer: it selects sources, fans the
// query out to each under a per-branch context derived from ctx, and
// returns the merged row stream. Without ORDER BY, member results arrive
// interleaved in completion order; with ORDER BY, the merge is an
// ordered k-way heap merge over the locally-sorted branches, so the
// merged stream preserves the global order and ORDER BY + LIMIT yields
// the same top-N a single endpoint over the union corpus would. LIMIT is
// re-applied on the merge either way (each source also applies it
// locally, bounding per-branch work). The merged stream fails, with
// every branch canceled, on the first fatal branch error; it ends
// cleanly when all branches are exhausted.
func (f *Client) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	return f.stream(ctx, query, nil)
}

func (f *Client) stream(ctx context.Context, query string, partial *Partial) (*sparql.RowSeq, error) {
	if len(f.sources) == 0 {
		return nil, errors.New("federation: no sources configured")
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.FormConstruct {
		return nil, Refusal("federation: CONSTRUCT is not supported over a federation; query a single source")
	}
	if partial != nil {
		// shapes whose already-emitted rows a late branch drop would
		// silently invalidate are refused rather than degraded
		if len(q.OrderBy) > 0 {
			return nil, Refusal("federation: partial results are not supported with ORDER BY (a dropped branch breaks the global-order guarantee mid-stream); retry without partial or without ORDER BY")
		}
		if q.Distinct || q.Reduced {
			return nil, Refusal("federation: partial results are not supported with DISTINCT/REDUCED (merge-level dedup outcomes may depend on a branch that later vanished); retry without partial or without DISTINCT")
		}
	}
	// An aggregate fanned out unchanged would make every member
	// aggregate its own partition and the merge interleave the partial
	// results — silently wrong numbers. Refuse until decomposed
	// execution (ROADMAP) can combine partials correctly.
	if q.NeedsGrouping() {
		return nil, Refusal("federation: GROUP BY/aggregate queries are not supported over a federation (members would aggregate their partitions independently); query a single source or aggregate client-side")
	}
	// OFFSET fanned out unchanged makes every member skip its own first
	// N rows, so the merged result drops up to (k-1)*N answers a union
	// endpoint would return. Refuse like aggregates rather than mislead.
	if q.Offset > 0 {
		return nil, Refusal("federation: OFFSET is not supported over a federation (each member would skip rows independently); query a single source or skip client-side")
	}
	// The ordered merge compares *projected* rows, so every ORDER BY
	// variable must survive projection — a sort key outside the SELECT
	// list is unbound on every merged row and the merge would silently
	// degrade to branch concatenation (wrong row set under LIMIT).
	if len(q.OrderBy) > 0 && !q.Star {
		proj := map[string]bool{}
		for _, v := range q.Vars() {
			proj[v] = true
		}
		for _, v := range sparql.OrderByVars(q.OrderBy) {
			if !proj[v] {
				return nil, Refusal(fmt.Sprintf("federation: ORDER BY ?%s is not supported over a federation unless ?%s is projected (the merge orders by projected rows only); add it to the SELECT list or query a single source", v, v))
			}
		}
	}
	selected, tripped := f.selectSources(q, partial)
	if len(selected) == 0 {
		if f.allDown() || tripped > 0 {
			// nothing left to ask: every source is down or its breaker is
			// holding it open — that is an outage, not an empty answer
			return nil, fmt.Errorf("federation: all %d sources unavailable: %w", len(f.sources), endpoint.ErrUnavailable)
		}
		// every source was provably pruned: the federated answer is empty
		return sparql.ResultSeq(&sparql.Result{Vars: q.Vars()}), nil
	}
	if q.Form == sparql.FormAsk {
		return f.fanAsk(ctx, query, selected, partial)
	}
	return f.fanSelect(ctx, q, query, selected, partial)
}

func (f *Client) allDown() bool {
	for _, src := range f.sources {
		if src.Available() {
			return false
		}
	}
	return true
}

// fanAsk answers a federated ASK: true iff any source answers true. All
// sources are asked concurrently; the first fatal error cancels the rest
// — except under partial-result mode, where a failing source is dropped
// (and named in the Partial) and the remaining answers decide.
func (f *Client) fanAsk(ctx context.Context, query string, selected []*endpoint.Source, partial *Partial) (*sparql.RowSeq, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		boolean  bool
		fatal    error
		answered int
		wg       sync.WaitGroup
	)
	for _, src := range selected {
		wg.Add(1)
		go func(src *endpoint.Source) {
			defer wg.Done()
			start := time.Now()
			res, err := src.Client.Query(actx, query)
			elapsed := time.Since(start)
			if err != nil {
				// stats mirror runBranch: teardown is nobody's failure, a
				// skipped outage is Unavailable, anything else reached the
				// source and errored
				switch {
				case actx.Err() != nil:
				case f.SkipUnavailable && errors.Is(err, endpoint.ErrUnavailable):
					f.bump(src, func(st *SourceStats) { st.Queries++; st.Unavailable++; st.Elapsed += elapsed })
					src.Breaker.Failure()
					partial.drop(src.Label())
				case partial != nil:
					f.bump(src, func(st *SourceStats) { st.Queries++; st.Errors++; st.Dropped++; st.Elapsed += elapsed })
					src.Breaker.Failure()
					partial.drop(src.Label())
				default:
					f.bump(src, func(st *SourceStats) { st.Queries++; st.Errors++; st.Elapsed += elapsed })
					src.Breaker.Failure()
					mu.Lock()
					if fatal == nil {
						fatal = fmt.Errorf("federation: source %s: %w", src.Label(), err)
						cancel()
					}
					mu.Unlock()
				}
				return
			}
			f.bump(src, func(st *SourceStats) { st.Queries++; st.Elapsed += elapsed })
			src.Breaker.Success()
			mu.Lock()
			answered++
			if res.Ask && res.Boolean {
				boolean = true
			}
			mu.Unlock()
		}(src)
	}
	wg.Wait()
	if fatal != nil {
		return nil, fatal
	}
	// a dead caller context makes every branch fail with its error and
	// the fatal guard skip them all — that is a cancellation, not an
	// outage of the sources
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if answered == 0 {
		return nil, fmt.Errorf("federation: all %d selected sources unavailable: %w", len(selected), endpoint.ErrUnavailable)
	}
	f.noteDegraded(partial)
	return sparql.ResultSeq(&sparql.Result{Ask: true, Boolean: boolean}), nil
}

// branch is one source's leg of a fan-out. The producer goroutine owns
// every field until it closes ch; the merge loop reads err/skipped only
// after the close, so no lock is needed.
type branch struct {
	src     *endpoint.Source
	ch      chan sparql.Binding
	opened  bool
	skipped bool
	err     error
}

// fanSelect runs the streaming k-way merge for SELECT queries.
func (f *Client) fanSelect(ctx context.Context, q *sparql.Query, query string, selected []*endpoint.Source, partial *Partial) (*sparql.RowSeq, error) {
	mctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	branches := make([]*branch, len(selected))
	openCh := make(chan *branch, len(selected))
	for i, src := range selected {
		b := &branch{src: src, ch: make(chan sparql.Binding, DefaultBuffer)}
		branches[i] = b
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(b.ch)
			f.runBranch(mctx, &wg, b, query, openCh, partial)
		}()
	}

	// The stream's head (Vars) comes from the parsed query — for SELECT *
	// every variable of its pattern — so it is the same no matter which
	// branch opens first, and a source that heads its rows differently
	// loses no cell the query can bind. Still wait for one branch to open
	// before returning: a fatal open failure before any branch opened
	// fails the whole stream immediately (branches canceled), and every
	// branch skipping as unavailable must surface as ErrUnavailable, not
	// as an empty success.
	vars := q.Vars()
	opened := false
	reported := 0
	var openErr error
	for reported < len(branches) && !opened && openErr == nil {
		select {
		case b := <-openCh:
			reported++
			switch {
			case b.opened:
				opened = true
			case b.err != nil:
				openErr = b.err
			}
		case <-ctx.Done():
			openErr = ctx.Err()
		}
	}
	if openErr != nil {
		cancel()
		wg.Wait()
		return nil, openErr
	}
	if !opened {
		// every branch reported without opening: all skipped as unavailable
		cancel()
		wg.Wait()
		return nil, fmt.Errorf("federation: all %d selected sources unavailable: %w", len(selected), endpoint.ErrUnavailable)
	}

	dedupe := q.Distinct || q.Reduced
	// Dedup keys are positional over the head: what the consumer sees
	// of a row is what makes it a duplicate.
	var streamErr error
	var seq func(func(sparql.Binding) bool)
	if len(q.OrderBy) > 0 {
		seq = mergeOrdered(ctx, q, branches, dedupe, vars, &streamErr)
	} else {
		seq = mergeInterleave(ctx, q, branches, dedupe, vars, &streamErr)
	}
	out := sparql.NewRowSeq(vars, seq, &streamErr)
	// Exhaustion, a fatal branch error, a satisfied LIMIT, and consumer
	// Close all funnel through OnClose: cancel every branch context and
	// join the producers, so no goroutine outlives the stream and the
	// stats are final when Close returns.
	out.OnClose(func() {
		cancel()
		wg.Wait()
		f.noteDegraded(partial)
	})
	return out, nil
}

// noteDegraded bumps the degraded-queries counter once per query whose
// partial accounting recorded a drop, after the fan-out is joined (so
// the drop list is final).
func (f *Client) noteDegraded(partial *Partial) {
	if f.Metrics == nil || !partial.Degraded() {
		return
	}
	f.fmOnce.Do(func() { f.fm = newFedMetrics(f.Metrics) })
	f.fm.degraded.Inc()
}

// mergeInterleave is the unordered merge: one select case per open
// branch plus the caller's ctx last; reflect.Select picks uniformly
// among ready branches, which is the k-way interleave. Cases are rebuilt
// only when a branch ends.
func mergeInterleave(ctx context.Context, q *sparql.Query, branches []*branch, dedupe bool, keyVars []string, streamErr *error) func(func(sparql.Binding) bool) {
	limit := q.Limit
	return func(yield func(sparql.Binding) bool) {
		open := make([]*branch, len(branches))
		copy(open, branches)
		var seen map[string]struct{}
		if dedupe {
			seen = map[string]struct{}{}
		}
		var cases []reflect.SelectCase
		rebuild := func() {
			cases = cases[:0]
			for _, b := range open {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(b.ch)})
			}
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())})
		}
		rebuild()
		emitted := 0
		for len(open) > 0 {
			i, v, ok := reflect.Select(cases)
			if i == len(open) { // caller's ctx died
				*streamErr = ctx.Err()
				return
			}
			if !ok { // branch ended; err/skipped published by the close
				if b := open[i]; b.err != nil {
					*streamErr = b.err
					return
				}
				open = append(open[:i], open[i+1:]...)
				rebuild()
				continue
			}
			row := v.Interface().(sparql.Binding)
			if seen != nil {
				k := sparql.BindingKey(row, keyVars)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
			}
			// cap before yielding, so the merge-level LIMIT holds even
			// against a member that ignores its local LIMIT (quirky
			// engines do) and for LIMIT 0
			if limit >= 0 && emitted >= limit {
				return
			}
			if !yield(row) {
				return
			}
			emitted++
		}
	}
}

// orderedHead is one branch's current least row in the ordered merge.
type orderedHead struct {
	b   *branch
	idx int // branch position, the deterministic tie-break
	row sparql.Binding
	key sparql.OrderKey
}

// headHeap is the ordered merge's min-heap: least ORDER BY key first,
// ties broken by branch index so the merged order is deterministic given
// the branch contents.
type headHeap struct {
	conds []sparql.OrderCond
	hs    []orderedHead
}

func (h *headHeap) Len() int { return len(h.hs) }
func (h *headHeap) Less(i, j int) bool {
	if c := sparql.CompareOrderKeys(h.conds, h.hs[i].key, h.hs[j].key); c != 0 {
		return c < 0
	}
	return h.hs[i].idx < h.hs[j].idx
}
func (h *headHeap) Swap(i, j int) { h.hs[i], h.hs[j] = h.hs[j], h.hs[i] }
func (h *headHeap) Push(x any)    { h.hs = append(h.hs, x.(orderedHead)) }
func (h *headHeap) Pop() any {
	last := len(h.hs) - 1
	x := h.hs[last]
	h.hs[last] = orderedHead{}
	h.hs = h.hs[:last]
	return x
}

// mergeOrdered is the ordered k-way merge for ORDER BY queries. Each
// member establishes the order locally (the engines materialize and sort
// for ORDER BY), so the branch channels deliver sorted runs; a min-heap
// over the branch heads yields the global order — and, with LIMIT, the
// true global top-N, where completion-order interleaving would return
// whichever N rows arrived first. The price is head-of-line fill: no row
// can surface before every branch has delivered its first row or ended,
// since any branch might still hold the least one.
func mergeOrdered(ctx context.Context, q *sparql.Query, branches []*branch, dedupe bool, keyVars []string, streamErr *error) func(func(sparql.Binding) bool) {
	conds := q.OrderBy
	limit := q.Limit
	return func(yield func(sparql.Binding) bool) {
		// pull blocks for the branch's next row. ok is false when the
		// branch ended (its err, if fatal, goes to streamErr) or the
		// caller's ctx died; fatal==true means stop the whole merge.
		pull := func(b *branch) (row sparql.Binding, ok, fatal bool) {
			select {
			case row, chOk := <-b.ch:
				if !chOk {
					if b.err != nil {
						*streamErr = b.err
						return nil, false, true
					}
					return nil, false, false
				}
				return row, true, false
			case <-ctx.Done():
				*streamErr = ctx.Err()
				return nil, false, true
			}
		}
		h := &headHeap{conds: conds, hs: make([]orderedHead, 0, len(branches))}
		for i, b := range branches {
			row, ok, fatal := pull(b)
			if fatal {
				return
			}
			if !ok { // empty or skipped branch
				continue
			}
			heap.Push(h, orderedHead{b: b, idx: i, row: row, key: sparql.OrderKeyOf(conds, row)})
		}
		var seen map[string]struct{}
		if dedupe {
			seen = map[string]struct{}{}
		}
		emitted := 0
		for h.Len() > 0 {
			hd := h.hs[0]
			// yield the current global minimum before blocking on its
			// branch's next row: a member that trickles rows must not gate
			// the row already known to be least
			emit := true
			if seen != nil {
				k := sparql.BindingKey(hd.row, keyVars)
				if _, dup := seen[k]; dup {
					emit = false
				} else {
					seen[k] = struct{}{}
				}
			}
			if emit {
				if limit >= 0 && emitted >= limit {
					return
				}
				if !yield(hd.row) {
					return
				}
				emitted++
				if limit >= 0 && emitted >= limit {
					// satisfied LIMIT returns without pulling a surplus row
					return
				}
			}
			// advance the consumed branch in place (Fix beats Pop+Push)
			row, ok, fatal := pull(hd.b)
			if fatal {
				return
			}
			if ok {
				h.hs[0] = orderedHead{b: hd.b, idx: hd.idx, row: row, key: sparql.OrderKeyOf(conds, row)}
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
	}
}

// attemptResult is one open attempt's outcome in a (possibly hedged)
// branch open: the opened stream with its pre-pulled first row, or the
// open error.
type attemptResult struct {
	rs      *sparql.RowSeq
	row     sparql.Binding
	hasRow  bool
	cancel  context.CancelFunc
	hedged  bool // this was the second attempt
	openErr error
}

// openBranch opens src's stream, hedging the open when the client is
// configured to: if the first attempt has not delivered its first row
// within the source's hedge delay, a second attempt launches and
// whichever delivers first wins; the loser's context is canceled and its
// stream drained on a fan-out-joined goroutine, so the Close-joins-
// everything contract holds. Each attempt pulls the first row before
// reporting — "open" for hedging purposes means rows are actually
// flowing, not just that headers arrived. An attempt that errors while
// the other is still running does not decide the open; only both
// failing does.
func (f *Client) openBranch(mctx context.Context, wg *sync.WaitGroup, src *endpoint.Source, query string) attemptResult {
	results := make(chan attemptResult, 2)
	// cancels[i] is attempt i's context cancel, created synchronously in
	// launch so the select loop can abort a still-opening loser without
	// waiting for it to report
	var cancels [2]context.CancelFunc
	launch := func(hedged bool) {
		actx, cancel := context.WithCancel(mctx)
		idx := 0
		if hedged {
			idx = 1
		}
		cancels[idx] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := endpoint.Stream(actx, src.Client, query)
			if err != nil {
				cancel()
				results <- attemptResult{openErr: err, hedged: hedged}
				return
			}
			// the attempt's context must die with its stream however the
			// stream ends; registering before the first pull covers the
			// exhaustion, error and Close paths alike
			rs.OnClose(cancel)
			row, ok := rs.Next()
			results <- attemptResult{rs: rs, row: row, hasRow: ok, cancel: cancel, hedged: hedged}
		}()
	}
	launch(false)
	if !f.Hedge {
		return <-results
	}
	hedgeTimer := time.NewTimer(f.hedgeDelay(src))
	defer hedgeTimer.Stop()
	launched := 1
	var firstErr *attemptResult
	for {
		select {
		case <-hedgeTimer.C:
			if launched == 1 {
				launched = 2
				f.bump(src, func(st *SourceStats) { st.Hedged++ })
				launch(true)
			}
		case res := <-results:
			if res.openErr != nil {
				if launched == 2 && firstErr == nil {
					// the sibling attempt may still win; remember the error
					firstErr = &res
					continue
				}
				if launched == 2 && firstErr != nil {
					// both attempts failed: surface the primary's error
					if res.hedged {
						return *firstErr
					}
					return res
				}
				return res
			}
			if launched == 2 {
				f.bump(src, func(st *SourceStats) {
					if res.hedged {
						st.HedgeWon++
					} else {
						st.HedgeWasted++
					}
				})
				if firstErr == nil {
					// the loser is still running: cancel its context now
					// (it may be blocked mid-open) and drain its stream off
					// the fan-out's WaitGroup
					loserCancel := cancels[1]
					if res.hedged {
						loserCancel = cancels[0]
					}
					loserCancel()
					wg.Add(1)
					go func() {
						defer wg.Done()
						loser := <-results
						if loser.rs != nil {
							loser.rs.Close()
						}
					}()
				}
			}
			return res
		}
	}
}

// runBranch opens one source's stream under the merge context and pumps
// its rows into the branch buffer. It reports on openCh exactly once,
// after the open attempt, and sets err/skipped before returning — the
// deferred channel close in the caller publishes them to the merge loop.
// The source's circuit breaker records the outcome: a failed open or a
// mid-stream death is a Failure, a cleanly exhausted stream a Success —
// an open alone earns nothing, so a source that always dies mid-stream
// still trips. Under partial-result mode failures drop the branch (and
// name the source in the Partial) instead of failing the merge.
func (f *Client) runBranch(mctx context.Context, wg *sync.WaitGroup, b *branch, query string, openCh chan<- *branch, partial *Partial) {
	src := b.src
	start := time.Now()
	att := f.openBranch(mctx, wg, src, query)
	if att.openErr != nil {
		err := att.openErr
		switch {
		case mctx.Err() != nil:
			// the merge tore down (consumer Close, satisfied LIMIT, a
			// sibling's fatal error) while this branch was still opening:
			// not this source's failure, and not worth an error stat
			b.skipped = true
		case f.SkipUnavailable && errors.Is(err, endpoint.ErrUnavailable):
			b.skipped = true
			f.bump(src, func(st *SourceStats) { st.Queries++; st.Unavailable++; st.Elapsed += time.Since(start) })
			src.Breaker.Failure()
			partial.drop(src.Label())
		case partial != nil:
			b.skipped = true
			f.bump(src, func(st *SourceStats) { st.Queries++; st.Errors++; st.Dropped++; st.Elapsed += time.Since(start) })
			src.Breaker.Failure()
			partial.drop(src.Label())
		default:
			b.err = fmt.Errorf("federation: source %s: %w", src.Label(), err)
			f.bump(src, func(st *SourceStats) { st.Queries++; st.Errors++ })
			src.Breaker.Failure()
		}
		openCh <- b
		return
	}
	rs := att.rs
	b.opened = true
	f.bump(src, func(st *SourceStats) { st.Queries++ })
	openCh <- b
	defer rs.Close()
	var rows int64
	defer func() {
		f.bump(src, func(st *SourceStats) {
			st.Rows += rows
			st.Elapsed += time.Since(start)
		})
	}()
	if att.hasRow {
		d := time.Since(start)
		f.bump(src, func(st *SourceStats) { st.FirstRow = d })
		src.Hedge.Observe(d)
		select {
		case b.ch <- att.row:
			rows++
		case <-mctx.Done():
			return
		}
	}
	for {
		row, ok := rs.Next()
		if !ok {
			// a failure caused by the merge's own teardown is not the
			// source's error
			if err := rs.Err(); err != nil && mctx.Err() == nil {
				src.Breaker.Failure()
				if partial != nil {
					f.bump(src, func(st *SourceStats) { st.Errors++; st.Dropped++ })
					partial.drop(src.Label())
				} else {
					b.err = fmt.Errorf("federation: source %s: %w", src.Label(), err)
					f.bump(src, func(st *SourceStats) { st.Errors++ })
				}
				return
			}
			if mctx.Err() == nil {
				// clean end of stream: the only outcome that earns the
				// breaker a success
				src.Breaker.Success()
			}
			return
		}
		if rows == 0 {
			d := time.Since(start)
			f.bump(src, func(st *SourceStats) { st.FirstRow = d })
			src.Hedge.Observe(d)
		}
		select {
		case b.ch <- row:
			rows++
		case <-mctx.Done():
			return
		}
	}
}
