// Package federation turns N SPARQL endpoints into one: a Client that
// implements the same endpoint.Client/endpoint.Streamer surface as a
// single endpoint, fanning each query out to its member sources and
// merging the resulting row streams incrementally (paper §1: the hybrid
// landscape is many independent endpoints; the extracted indexes are what
// lets a tool route queries instead of blind-broadcasting them).
//
// Each selected source is one leg, and one branch runner serves every
// leg, SELECT and ASK alike: it opens the member's stream under a
// context derived from the caller's, ranges over its positional rows on
// the leg's own goroutine, maps the member's columns onto the merged head
// once and pushes a copy of every row into the merge, so rows surface in
// completion order. The whole fan-out is torn down — every leg's context
// canceled, every goroutine joined — on the first fatal leg error, on
// consumer Close, or when a merged LIMIT is satisfied. DISTINCT queries
// deduplicate on the merge by the rows' terms, as the engines do, so
// a federated DISTINCT equals a single-endpoint DISTINCT over the union
// corpus row-for-row. ORDER BY queries switch the merge to an ordered
// k-way heap merge: each leg is locally sorted by the member engine, so
// popping the least head row re-establishes the global order — and makes
// ORDER BY + LIMIT return the true global top-N rather than the first N
// rows to complete. Queries fan-out cannot answer faithfully are refused
// up front: GROUP BY/aggregates (members would aggregate their
// partitions independently), OFFSET (each member would skip rows
// independently), and ORDER BY on variables the SELECT list drops (the
// merge orders by projected rows only).
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
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/obs"
	"repro/internal/rdf"
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

// DefaultBuffer is the row buffer the merge keeps per leg: deep enough
// that a momentarily slow consumer does not stall every producer, small
// enough that abandoning the stream wastes at most this many rows per
// leg.
const DefaultBuffer = 16

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
	// Hedge enables hedged stream opens: when a leg's first row has not
	// arrived within the source's hedge delay (the p90 of its observed
	// open-to-first-row latencies, seeded from the cost model before any
	// observation exists), a second attempt opens and whichever delivers
	// first wins; the loser is canceled. Tail-slow opens stop gating the
	// merge at the price of ~10% extra opens.
	Hedge bool
	// HedgeAfter, when > 0, fixes the hedge delay instead of deriving it
	// per source — for tests and benchmarks that need a deterministic
	// trigger.
	HedgeAfter time.Duration
	// Metrics is the per-source accounting: every leg outcome increments
	// source-labeled registry series, which outlive this client. nil
	// records nothing.
	Metrics *obs.Registry

	sources []*endpoint.Source

	fmOnce sync.Once
	fm     *fedMetrics
}

// fedMetrics are the registry handles of the per-source accounting, one
// labeled series per source URL.
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

// metrics returns the registry handles, made on first use because
// Metrics is set after New; off a nil Metrics every handle is a no-op.
func (f *Client) metrics() *fedMetrics {
	f.fmOnce.Do(func() { f.fm = newFedMetrics(f.Metrics) })
	return f.fm
}

// New builds a federated client over the given sources.
func New(sources ...*endpoint.Source) *Client {
	return &Client{sources: sources}
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
	m := f.metrics()
	selected = make([]*endpoint.Source, 0, len(f.sources))
	for _, src := range f.sources {
		if !src.Available() {
			m.unavailable.With(src.URL).Inc()
			partial.drop(src.Label())
			continue
		}
		if f.Policy != All && f.Vocabulary != nil && len(preds)+len(classes) > 0 {
			if v, ok := f.Vocabulary(src.URL); ok && !v.CanAnswer(preds, classes) {
				m.pruned.With(src.URL).Inc()
				continue
			}
		}
		if !src.Breaker.Allow() {
			m.tripped.With(src.URL).Inc()
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

// StreamPartial is Stream in partial-result mode: a failing leg — down
// at open, erroring at open after retries, or dying mid-stream — is
// dropped from the merge instead of failing it, and the returned Partial
// names every dropped source so the caller can report an incomplete
// result honestly rather than not at all. A query whose semantics a
// silent drop would corrupt is refused: ORDER BY (a dropped leg breaks
// the global-order guarantee mid-stream) and DISTINCT/REDUCED (rows
// already emitted may owe their dedup outcome to a leg that later
// vanished). All selected sources failing at open is still an error —
// partial mode degrades results, it does not fabricate empty ones.
func (f *Client) StreamPartial(ctx context.Context, query string) (*sparql.RowSeq, *Partial, error) {
	p := &Partial{}
	rs, err := f.stream(ctx, query, p)
	if err != nil {
		return nil, nil, err
	}
	return rs, p, nil
}

// Stream implements endpoint.Streamer: it selects sources, runs one leg
// per source under a context derived from ctx, and returns the merged
// row stream. Without ORDER BY, member results arrive interleaved in
// completion order; with ORDER BY, the merge is an ordered k-way heap
// merge over the locally-sorted legs, so the merged stream preserves the
// global order and ORDER BY + LIMIT yields the same top-N a single
// endpoint over the union corpus would. LIMIT is re-applied on the merge
// either way (each source also applies it locally, bounding per-leg
// work). The merged stream fails, with every leg canceled, on the first
// fatal leg error; it ends cleanly when all legs are exhausted.
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
		// shapes whose already-emitted rows a late leg drop would
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
	// degrade to leg concatenation (wrong row set under LIMIT).
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
	return f.fan(ctx, q, query, selected, partial)
}

func (f *Client) allDown() bool {
	for _, src := range f.sources {
		if src.Available() {
			return false
		}
	}
	return true
}

// leg is one selected source's part of a fan-out. Exactly one goroutine
// settles it — the attempt that claimed it, or the last attempt to fail
// — and that goroutine writes answer and err before it sends the leg's
// closing message, which publishes them to the merge.
type leg struct {
	src    *endpoint.Source
	vars   []string    // the merged head
	out    chan legMsg // the shared fan-in, or the leg's own channel under ORDER BY
	answer bool        // ASK: the member's answer
	err    error       // fatal: the merged stream fails with it
}

// legMsg is what a leg sends the merge: one row, aligned with the merged
// head and the merge's to keep, or (end) the leg's closing message.
type legMsg struct {
	leg *leg
	row []rdf.Term
	end bool
}

// push sends m to the merge unless the merge is torn down first.
func (l *leg) push(mctx context.Context, m legMsg) bool {
	select {
	case l.out <- m:
		return true
	case <-mctx.Done():
		return false
	}
}

// errDropped is what a leg that never opened reports on the open channel
// when its failure is not fatal: torn down, skipped or dropped.
var errDropped = errors.New("federation: leg dropped")

// fan runs one leg per selected source and merges what they push. The
// legs of an unordered query send into one shared fan-in channel; under
// ORDER BY each leg keeps its own channel for the ordered merge's heap.
func (f *Client) fan(ctx context.Context, q *sparql.Query, query string, selected []*endpoint.Source, partial *Partial) (*sparql.RowSeq, error) {
	mctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	stop := func() {
		cancel()
		wg.Wait()
	}
	vars := q.Vars() // the merged head: see below
	ordered := len(q.OrderBy) > 0
	var fanIn chan legMsg
	if !ordered {
		// DefaultBuffer rows per leg, as the ordered merge's channels hold
		fanIn = make(chan legMsg, DefaultBuffer*len(selected))
	}
	opens := make(chan error, len(selected)) // one report per leg
	legs := make([]*leg, len(selected))
	for i, src := range selected {
		l := &leg{src: src, vars: vars, out: fanIn}
		if ordered {
			l.out = make(chan legMsg, DefaultBuffer)
		}
		legs[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.run(mctx, &wg, l, query, opens, partial)
		}()
	}

	// The stream's head (Vars) comes from the parsed query — for SELECT *
	// every variable of its pattern — so it is the same no matter which
	// leg opens first, and a source that heads its rows differently loses
	// no cell the query can bind: each leg places its member's cells
	// under it. Still wait for one leg to open before
	// returning: a fatal failure before any leg opened fails the whole
	// stream immediately (legs canceled), and every leg skipping as
	// unavailable must surface as ErrUnavailable, not as an empty success
	// — unless the caller's context died, which tears every leg down.
	for reported := 0; ; reported++ {
		if reported == len(legs) {
			stop()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("federation: all %d selected sources unavailable: %w", len(selected), endpoint.ErrUnavailable)
		}
		var err error
		select {
		case err = <-opens:
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err == nil {
			break
		}
		if err != errDropped {
			stop()
			return nil, err
		}
	}

	// Dedup keys are positional over the head: what the consumer sees
	// of a row is what makes it a duplicate.
	var seen func([]rdf.Term) bool
	if q.Distinct || q.Reduced {
		seen = firstSeen()
	}
	var streamErr error
	var seq iter.Seq[[]rdf.Term]
	if ordered {
		seq = mergeOrdered(ctx, q, legs, seen, vars, &streamErr)
	} else {
		seq = mergeInterleave(ctx, q, fanIn, len(legs), seen, &streamErr)
	}
	if q.Form == sparql.FormAsk {
		// an ASK leg's answer travels in its member's head: run the merge
		// to its end, then OR the answers of the legs that opened
		for range seq {
		}
		stop()
		if streamErr != nil {
			return nil, streamErr
		}
		answer := false
		for _, l := range legs {
			answer = answer || l.answer
		}
		f.noteDegraded(partial)
		return sparql.ResultSeq(&sparql.Result{Ask: true, Boolean: answer}), nil
	}
	out := sparql.NewRowSeq(vars, seq, &streamErr)
	// Exhaustion, a fatal leg error, a satisfied LIMIT, and consumer
	// Close all funnel through OnClose: cancel every leg's context and
	// join every goroutine, so none outlives the stream and the registry
	// holds the final accounting when Close returns.
	out.OnClose(func() {
		stop()
		f.noteDegraded(partial)
	})
	return out, nil
}

// noteDegraded bumps the degraded-queries counter once per query whose
// partial accounting recorded a drop, after the fan-out is joined (so
// the drop list is final).
func (f *Client) noteDegraded(partial *Partial) {
	if partial.Degraded() {
		f.metrics().degraded.Inc()
	}
}

// mergeInterleave is the unordered merge. Every leg sends into the one
// shared fan-in channel, so a plain receive takes rows in completion
// order across legs — the k-way interleave. A closing message retires
// its leg, or fails the merge with the leg's error. The merge returns as
// soon as LIMIT is satisfied, before any row for LIMIT 0, without
// waiting on a leg that has not delivered.
func mergeInterleave(ctx context.Context, q *sparql.Query, fanIn <-chan legMsg, legs int, seen func([]rdf.Term) bool, streamErr *error) iter.Seq[[]rdf.Term] {
	limit := q.Limit
	return func(yield func([]rdf.Term) bool) {
		// the merge applies LIMIT itself, so it holds even against a
		// member that ignores its local LIMIT (quirky engines do)
		for emitted, open := 0, legs; open > 0 && (limit < 0 || emitted < limit); {
			var m legMsg
			select {
			case m = <-fanIn:
			case <-ctx.Done():
				*streamErr = ctx.Err()
				return
			}
			if m.end {
				if m.leg.err != nil {
					*streamErr = m.leg.err
					return
				}
				open--
				continue
			}
			if seen != nil && !seen(m.row) {
				continue
			}
			if !yield(m.row) {
				return
			}
			emitted++
		}
	}
}

// firstSeen returns the DISTINCT/REDUCED filter of both merges: true
// the first time a row's terms appear. The key (each term's kind and
// length-prefixed strings) is built in one reused buffer.
func firstSeen() func([]rdf.Term) bool {
	keys, buf := map[string]struct{}{}, []byte(nil)
	return func(row []rdf.Term) bool {
		buf = buf[:0]
		for _, t := range row {
			buf = append(buf, byte(t.Kind))
			for _, str := range [3]string{t.Value, t.Datatype, t.Lang} {
				buf = append(binary.AppendUvarint(buf, uint64(len(str))), str...)
			}
		}
		if _, dup := keys[string(buf)]; dup {
			return false
		}
		keys[string(buf)] = struct{}{}
		return true
	}
}

// orderedHead is one leg's current least row in the ordered merge.
type orderedHead struct {
	l   *leg
	idx int // leg position, the deterministic tie-break
	row []rdf.Term
	key sparql.OrderKey
}

// headHeap is the ordered merge's min-heap: least ORDER BY key first,
// ties broken by leg index so the merged order is deterministic given
// the legs' contents.
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
// for ORDER BY), so each leg's channel delivers a sorted run; a min-heap
// over the legs' heads yields the global order — and, with LIMIT, the
// true global top-N, where completion-order interleaving would return
// whichever N rows arrived first. The price is head-of-line fill: no row
// can surface before every leg has delivered its first row or ended,
// since any leg might still hold the least one.
func mergeOrdered(ctx context.Context, q *sparql.Query, legs []*leg, seen func([]rdf.Term) bool, vars []string, streamErr *error) iter.Seq[[]rdf.Term] {
	conds := q.OrderBy
	limit := q.Limit
	return func(yield func([]rdf.Term) bool) {
		// the ORDER BY conditions compile once, over rows aligned with vars
		keyOf := sparql.NewOrderKeyer(conds, vars)
		// pull blocks for the leg's next row. ok is false when the leg
		// ended (its err, if fatal, goes to streamErr) or the caller's
		// ctx died; fatal==true means stop the whole merge.
		pull := func(l *leg) (row []rdf.Term, ok, fatal bool) {
			select {
			case m := <-l.out:
				if !m.end {
					return m.row, true, false
				}
				if l.err != nil {
					*streamErr = l.err
					return nil, false, true
				}
				return nil, false, false
			case <-ctx.Done():
				*streamErr = ctx.Err()
				return nil, false, true
			}
		}
		h := &headHeap{conds: conds, hs: make([]orderedHead, 0, len(legs))}
		for i, l := range legs {
			row, ok, fatal := pull(l)
			if fatal {
				return
			}
			if !ok { // empty or skipped leg
				continue
			}
			heap.Push(h, orderedHead{l: l, idx: i, row: row, key: keyOf(row)})
		}
		emitted := 0
		for h.Len() > 0 {
			hd := h.hs[0]
			// yield the current global minimum before blocking on its
			// leg's next row: a member that trickles rows must not gate
			// the row already known to be least
			if seen == nil || seen(hd.row) {
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
			// advance the consumed leg in place (Fix beats Pop+Push)
			row, ok, fatal := pull(hd.l)
			if fatal {
				return
			}
			if ok {
				h.hs[0] = orderedHead{l: hd.l, idx: hd.idx, row: row, key: keyOf(row)}
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
	}
}

// race is the claim race between a leg's attempts: the primary and, once
// the hedge delay passes without a claim, the hedge. The first attempt to
// reach its first row or a clean end claims the leg and cancels the
// other. An attempt that fails while its sibling still runs decides
// nothing; the leg fails when no launched attempt is left, with the
// primary's error. One mutex orders the claim against the hedge's launch
// and against a failure before any claim.
type race struct {
	start  time.Time
	cancel [2]context.CancelFunc // each attempt's context; [1] is nil without hedging

	mu       sync.Mutex
	hedged   bool // the hedge launched
	decided  bool // an attempt claimed the leg, or the leg failed
	failures int
	err      error // the primary's failure
}

// launch admits the hedge unless the leg is already decided.
func (r *race) launch() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hedged = !r.decided
	return r.hedged
}

// claim decides the leg for attempt i unless it is decided already, and
// cancels the sibling, so the sibling's range ends at its next row or
// its open aborts. hedged reports whether the hedge had launched.
func (r *race) claim(i int) (won, hedged bool) {
	r.mu.Lock()
	won, hedged, r.decided = !r.decided, r.hedged, true
	r.mu.Unlock()
	if won {
		r.stop(1 - i)
	}
	return won, hedged
}

// fail records attempt i failing before it claimed the leg. failed
// reports that the leg has failed, and err is then the primary's error;
// a hedge that has not launched by then never will.
func (r *race) fail(i int, err error) (failed bool, _ error) {
	r.mu.Lock()
	if !r.decided {
		if i == 0 {
			r.err = err
		}
		r.failures++
		failed = !r.hedged || r.failures == 2
		r.decided = failed
	}
	r.mu.Unlock()
	if !failed {
		return false, nil
	}
	r.stop(1)
	return true, r.err
}

func (r *race) stop(i int) {
	if c := r.cancel[i]; c != nil {
		c()
	}
}

// run is the branch runner for one leg. The primary attempt runs on the
// calling goroutine; when the client hedges, a second goroutine waits out
// the hedge delay and, unless the leg was decided first, races a second
// attempt against it. Every goroutine it starts is joined through wg.
func (f *Client) run(mctx context.Context, wg *sync.WaitGroup, l *leg, query string, opens chan<- error, partial *Partial) {
	r := &race{start: time.Now()}
	pctx, pcancel := context.WithCancel(mctx)
	defer pcancel()
	r.cancel[0] = pcancel
	if f.Hedge {
		hctx, hcancel := context.WithCancel(mctx)
		r.cancel[1] = hcancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer hcancel()
			t := time.NewTimer(f.hedgeDelay(l.src))
			defer t.Stop()
			select {
			case <-t.C:
			case <-hctx.Done(): // decided before the delay, or torn down
				return
			}
			if r.launch() {
				f.metrics().hedged.With(l.src.URL).Inc()
				f.attempt(hctx, mctx, l, r, 1, query, opens, partial)
			}
		}()
	}
	f.attempt(pctx, mctx, l, r, 0, query, opens, partial)
}

// attempt is one try at a leg: it opens the member's stream under actx
// and ranges over it on the calling goroutine. Its first row, or a clean
// end, claims the leg; the claimant pushes every row into the merge and
// settles the leg when its stream ends. A loser stops at its next row or
// when its canceled open aborts, and settles the leg only when it was
// the last attempt left and failed.
func (f *Client) attempt(actx, mctx context.Context, l *leg, r *race, i int, query string, opens chan<- error, partial *Partial) {
	fail := func(err error) {
		if failed, err := r.fail(i, err); failed {
			f.settle(mctx, l, r.start, false, 0, err, opens, partial)
		}
	}
	rs, err := endpoint.Stream(actx, l.src.Client, query)
	if err != nil {
		fail(err)
		return
	}
	defer rs.Close()
	claimed := false
	var rows int64
	// the member's cells under the merged head: a member may head its
	// rows differently, or more narrowly
	for row := range rs.Project(l.vars).Terms() {
		if !claimed {
			if claimed = f.claim(l, r, i, true, opens); !claimed {
				return
			}
		}
		// the row crosses to the merge's goroutine: the leg copies it
		if !l.push(mctx, legMsg{leg: l, row: slices.Clone(row)}) {
			break // torn down: breaking the range ends the stream
		}
		rows++
	}
	err = rs.Err()
	if !claimed {
		if err != nil {
			fail(err)
			return
		}
		if !f.claim(l, r, i, false, opens) {
			return
		}
	}
	l.answer = rs.Ask && rs.Boolean
	f.settle(mctx, l, r.start, true, rows, err, opens, partial)
}

// claim makes attempt i the leg's claimant, at its first row (firstRow)
// or its clean end, and reports the leg open; it is false for the loser
// of the race.
func (f *Client) claim(l *leg, r *race, i int, firstRow bool, opens chan<- error) bool {
	won, hedged := r.claim(i)
	if !won {
		return false
	}
	m, url := f.metrics(), l.src.URL
	switch {
	case hedged && i == 1:
		m.hedgeWon.With(url).Inc()
	case hedged:
		m.hedgeWasted.With(url).Inc()
	}
	if firstRow {
		d := time.Since(r.start)
		m.firstRow.With(url).Set(d.Seconds())
		l.src.Hedge.Observe(d)
	}
	opens <- nil
	return true
}

// settle ends a leg, and is the one place its outcome is classified. A
// leg torn down by the merge (consumer Close, a satisfied LIMIT, a
// sibling's fatal error) is nobody's failure. Otherwise a clean end is
// the only outcome that earns the source's breaker a success, and a
// failure is a breaker failure that is skipped as unavailable (before
// the leg opened, under SkipUnavailable), dropped under partial-result
// mode, or fatal. Every leg that reached its source adds its query, its
// rows and its elapsed time to the registry. A leg that never opened
// reports its outcome on opens; every leg ends with its closing message.
func (f *Client) settle(mctx context.Context, l *leg, start time.Time, opened bool, rows int64, err error, opens chan<- error, partial *Partial) {
	m, src := f.metrics(), l.src
	torn := mctx.Err() != nil
	if opened || !torn {
		m.queries.With(src.URL).Inc()
		m.elapsed.With(src.URL).Add(time.Since(start).Seconds())
		if rows > 0 {
			m.rows.With(src.URL).Add(float64(rows))
		}
	}
	report := errDropped
	switch {
	case torn:
	case err == nil:
		src.Breaker.Success()
	case !opened && f.SkipUnavailable && errors.Is(err, endpoint.ErrUnavailable):
		src.Breaker.Failure()
		m.unavailable.With(src.URL).Inc()
		partial.drop(src.Label())
	case partial != nil:
		src.Breaker.Failure()
		m.errors.With(src.URL).Inc()
		m.dropped.With(src.URL).Inc()
		partial.drop(src.Label())
	default:
		src.Breaker.Failure()
		m.errors.With(src.URL).Inc()
		l.err = fmt.Errorf("federation: source %s: %w", src.Label(), err)
		report = l.err
	}
	if !opened {
		opens <- report
	}
	l.push(mctx, legMsg{leg: l, end: true})
}
