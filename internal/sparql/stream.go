package sparql

// Streaming query execution. A RowSeq is the incremental counterpart of
// Result: rows are produced one at a time, straight out of the ID-space
// executor's join pipeline, so a consumer that stops early (LIMIT, a
// canceled context, an abandoned HTTP connection) costs only the rows it
// actually took and memory stays O(row) instead of O(result).
//
// The pipeline drives the compiled plan of plan.go depth-first: each row
// travels the entire pattern tree alone and reaches the sinks of exec.go
// at the end — except at the last pattern of a join, which hands the
// sinks a whole store run (the rows that differ only in the index's last
// key) in one call. Solution modifiers that inherently need the full solution
// set (unwindowed ORDER BY, grouping, CONSTRUCT) hold rows
// back in a blocking sink and emit once the pattern is exhausted, so every
// query streams — just not every query streams incrementally.

import (
	"context"
	"iter"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// RowSeq is a streaming SELECT result: the head (projected variables) is
// known up front, rows arrive incrementally. The zero value is an empty
// stream.
//
// The stream is a push sequence of positional rows (one []rdf.Term
// aligned with Vars, the zero Term where a variable is unbound, in a
// buffer the producer reuses) — the one row shape every producer yields
// and every serving path consumes: the executor, the remote reader, the
// federated merges, a results writer. Terms ranges over it on the
// caller's goroutine; All and Collect build a fresh Binding per row, a
// convenience for code that keeps rows.
//
// Contract: a stream has one way to be consumed — range over Terms or
// All, once, and break or Close to stop early; after the range check Err
// for the reason the stream stopped. Close a stream abandoned before it
// is ranged, so the producer can release its resources (an HTTP body, a
// store snapshot). Close is idempotent and safe after exhaustion and
// inside a range's loop body. A RowSeq is single-consumer and not safe
// for concurrent use.
type RowSeq struct {
	// Vars is the projected variable list, in projection order.
	Vars []string
	// Ask and Boolean are set for ASK queries; the stream yields no rows.
	Ask     bool
	Boolean bool
	// Graph carries a CONSTRUCT result through the streaming interface
	// (such queries have no row stream to speak of).
	Graph *rdf.Graph

	seq     iter.Seq[[]rdf.Term] // the producer; nil once a range took it
	onClose func()
	errp    *error
	done    bool
	pushing bool // a Terms range is running seq
}

// OnClose registers fn to run exactly once when the stream ends — by
// exhaustion or by Close — so producers can release resources (an HTTP
// body, a file) even if the consumer abandons the stream before ranging
// over it. Multiple registrations compose: each fn runs once, in
// registration order, so a producer's cleanup and an observer's
// accounting can coexist on one stream.
func (rs *RowSeq) OnClose(fn func()) {
	if prev := rs.onClose; prev != nil {
		rs.onClose = func() { prev(); fn() }
		return
	}
	rs.onClose = fn
}

// NewRowSeq builds a RowSeq over a push iterator of positional rows
// aligned with vars, the zero Term where a variable is unbound. The
// producer may reuse its buffer between rows, as Terms promises its
// consumer. It reports a mid-stream failure by setting *errp before
// returning; errp may be nil for infallible producers. The producer runs
// on the consumer's goroutine, in its range, so no synchronization is
// needed around errp.
func NewRowSeq(vars []string, seq iter.Seq[[]rdf.Term], errp *error) *RowSeq {
	return &RowSeq{Vars: vars, errp: errp, seq: seq}
}

// ResultSeq adapts a materialized Result to the streaming interface: the
// one place Bindings become a stream's rows. A key of a row outside
// res.Vars has no column and is dropped.
func ResultSeq(res *Result) *RowSeq {
	row := make([]rdf.Term, len(res.Vars))
	rs := NewRowSeq(res.Vars, func(yield func([]rdf.Term) bool) {
		for _, b := range res.Rows {
			for i, v := range res.Vars {
				row[i] = b[v]
			}
			if !yield(row) {
				return
			}
		}
	}, nil)
	rs.Ask, rs.Boolean, rs.Graph = res.Ask, res.Boolean, res.Graph
	return rs
}

// Terms returns the remaining rows as a range-over-func iterator that
// runs the producer on the caller's goroutine. The slice is the
// producer's buffer, valid for one iteration: a consumer that keeps a row
// copies it (or ranges over All). Breaking out of the range ends the
// stream, as Close does; a Close inside the loop body ends it once the
// producer has unwound, so OnClose never runs under a live producer frame.
func (rs *RowSeq) Terms() iter.Seq[[]rdf.Term] {
	return func(yield func([]rdf.Term) bool) {
		if rs.done || rs.pushing {
			return
		}
		seq := rs.seq
		rs.seq, rs.pushing = nil, true
		defer rs.end()
		if seq != nil {
			seq(func(row []rdf.Term) bool { return yield(row) && !rs.done })
		}
	}
}

// end ends the stream: the OnClose hooks run, once.
func (rs *RowSeq) end() {
	rs.done, rs.pushing = true, false
	if fn := rs.onClose; fn != nil {
		rs.onClose = nil
		fn()
	}
}

// All returns the remaining rows as a range-over-func iterator over
// Terms. Breaking out of the range ends the stream.
func (rs *RowSeq) All() iter.Seq[Binding] {
	return func(yield func(Binding) bool) {
		for row := range rs.Terms() {
			if !yield(bindingOf(rs.Vars, row)) {
				return
			}
		}
	}
}

// bindingOf is a fresh Binding of the row's bound terms, for the
// consumers that keep rows as maps (All, Exec).
func bindingOf(vars []string, row []rdf.Term) Binding {
	b := make(Binding, len(row))
	for i, t := range row {
		if !t.IsZero() {
			b[vars[i]] = t
		}
	}
	return b
}

// Err reports why the stream stopped: nil after a complete, successful
// iteration (or when iteration has not finished), the producer's error
// otherwise. Check it after the loop, like bufio.Scanner.
func (rs *RowSeq) Err() error {
	if rs.errp != nil {
		return *rs.errp
	}
	return nil
}

// Close releases the stream's resources. It is idempotent and safe to
// call at any point; a range afterwards yields nothing. Inside a Terms
// range the producer stops at its next row and the range ends the stream
// once the producer has unwound.
func (rs *RowSeq) Close() {
	if rs.done {
		return
	}
	rs.done = true
	if !rs.pushing {
		rs.end()
	}
}

// Collect drains the stream into a materialized Result, closing it.
func (rs *RowSeq) Collect() (*Result, error) {
	defer rs.Close()
	if rs.Ask {
		return &Result{Ask: true, Boolean: rs.Boolean}, rs.Err()
	}
	res := &Result{Vars: rs.Vars, Graph: rs.Graph}
	for b := range rs.All() {
		res.Rows = append(res.Rows, b)
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// wrap returns a stream with rs's head and error whose producer is seq, a
// range over rs. Ending it ends rs, ranged or not.
func (rs *RowSeq) wrap(seq iter.Seq[[]rdf.Term]) *RowSeq {
	out := &RowSeq{Vars: rs.Vars, Ask: rs.Ask, Boolean: rs.Boolean, Graph: rs.Graph, seq: seq, errp: rs.errp}
	out.OnClose(rs.Close)
	return out
}

// Limit returns a stream that yields at most n rows of rs, then stops
// cleanly — the streaming counterpart of an endpoint's silent result cap.
func (rs *RowSeq) Limit(n int) *RowSeq {
	return rs.wrap(func(yield func([]rdf.Term) bool) {
		if n <= 0 {
			return
		}
		seen := 0
		for row := range rs.Terms() {
			if seen++; !yield(row) || seen == n {
				return
			}
		}
	})
}

// Project returns a stream of rs's rows re-headed onto vars: each row
// holds, in vars order, rs's cell of that variable, the zero Term where
// rs's head lacks it. The columns are found by name once per stream,
// for the consumers that read columns by name: a remote endpoint may
// order its head differently from the query, or leave a variable out.
func (rs *RowSeq) Project(vars []string) *RowSeq {
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = slices.Index(rs.Vars, v)
	}
	out := make([]rdf.Term, len(vars))
	p := rs.wrap(func(yield func([]rdf.Term) bool) {
		for row := range rs.Terms() {
			for i, c := range cols {
				out[i] = rdf.Term{}
				if c >= 0 {
					out[i] = row[c]
				}
			}
			if !yield(out) {
				return
			}
		}
	})
	p.Vars = vars
	return p
}

// Tap returns a stream identical to rs that additionally calls fn for
// every row that passes through it (the row is fn's only for the call);
// the endpoint simulation uses it to charge per-row virtual cost at the
// moment a row crosses the wire.
func (rs *RowSeq) Tap(fn func([]rdf.Term)) *RowSeq {
	return rs.wrap(func(yield func([]rdf.Term) bool) {
		for row := range rs.Terms() {
			if fn(row); !yield(row) {
				return
			}
		}
	})
}

// kind buckets the query for the engine's registry series.
func (q *Query) kind() string {
	switch {
	case q.Form == FormAsk:
		return "ask"
	case q.Form == FormConstruct:
		return "construct"
	case q.NeedsGrouping():
		return "aggregate"
	case len(q.OrderBy) > 0:
		return "ordered"
	case q.Distinct || q.Reduced:
		return "distinct"
	default:
		return "select"
	}
}

// instrumentStream attaches per-query engine accounting to rs: rows are
// counted as the producer yields them, and at stream end (exhaustion or
// Close) the query count, row count and duration land in kind-labeled
// registry families; sp, when non-nil, is closed with the yielded row
// count. With reg and sp both nil (the uninstrumented path) this is a
// no-op — no wrapper, no per-row work.
func instrumentStream(rs *RowSeq, reg *obs.Registry, sp *obs.Span, kind string, start time.Time) {
	if reg == nil && sp == nil {
		return
	}
	var rows int64
	if inner := rs.seq; inner != nil {
		rs.seq = func(yield func([]rdf.Term) bool) {
			inner(func(row []rdf.Term) bool {
				rows++
				return yield(row)
			})
		}
	}
	rs.OnClose(func() {
		sp.SetRows(0, rows)
		sp.End()
		if reg != nil {
			reg.CounterVec("hbold_query_total", "Queries executed by the SPARQL engine.", "kind").With(kind).Inc()
			reg.CounterVec("hbold_query_rows_total", "Rows yielded by the SPARQL engine.", "kind").With(kind).Add(float64(rows))
			reg.HistogramVec("hbold_query_duration_seconds", "Query wall time, stream open to stream end.", nil, "kind").With(kind).Observe(time.Since(start).Seconds())
		}
	})
}

// StreamExec parses the query and streams it against st.
func StreamExec(ctx context.Context, st store.Queryable, query string) (*RowSeq, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Stream(ctx, st)
}

// NeedsGrouping reports whether the query requires the grouping/
// aggregation machinery (which needs the full solution set). The
// federation layer uses it to reject fan-out of aggregates — each
// member would aggregate its own partition and the merge would
// interleave partial results, not combine them.
func (q *Query) NeedsGrouping() bool {
	if len(q.GroupBy) > 0 || len(q.Having) > 0 {
		return true
	}
	for _, it := range q.Select {
		if it.Expr != nil && HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// Stream executes the parsed query incrementally against st: the plan is
// compiled here, and the pipeline runs, on the consumer's goroutine, as
// the consumer ranges over the stream. A plain
// SELECT yields each solution as it is produced; shapes with a blocking
// sink (ORDER BY, aggregation) yield once the pattern is exhausted. ASK
// and CONSTRUCT answers travel in the stream's head, so those forms run
// to completion — or to ctx's cancellation — before Stream returns.
// Either way the stream honors ctx throughout, and the rows are
// identical to Exec's up to order.
func (q *Query) Stream(ctx context.Context, st store.Queryable) (*RowSeq, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Observability is opt-in via the context: without a registry or
	// trace attached, kind/start stay unused and no wrapper is added.
	reg := obs.RegistryFrom(ctx)
	kind := q.kind()
	sp := obs.StartSpan(ctx, "query:"+kind)
	var start time.Time
	if reg != nil || sp != nil {
		start = time.Now()
	}
	fail := func(err error) (*RowSeq, error) {
		sp.End()
		if reg != nil {
			reg.CounterVec("hbold_query_errors_total", "Queries that failed before yielding a stream.", "kind").With(kind).Inc()
		}
		return nil, err
	}
	p, err := q.compile(st)
	if err != nil {
		return fail(err)
	}
	if reg != nil {
		reg.Histogram("hbold_query_compile_seconds", "Plan compilation time for ID-space streamed queries.", nil).Observe(time.Since(start).Seconds())
	}
	var rs *RowSeq
	if q.Form == FormSelect {
		var streamErr error
		rs = &RowSeq{Vars: p.vars, errp: &streamErr, seq: func(yield func([]rdf.Term) bool) {
			streamErr = p.run(ctx, reg, nil, yield)
		}}
		// a stream closed before its first row never enters run
		rs.OnClose(p.ex.release)
	} else {
		if err := p.run(ctx, reg, nil, nil); err != nil {
			return fail(err)
		}
		rs = ResultSeq(p.result(nil))
	}
	instrumentStream(rs, reg, sp, kind, start)
	return rs, nil
}

// streamYield receives one run of pipeline rows plus the first scratch
// level the continuation may use (levels below it belong to live ancestor
// frames). The rows are r with rn.slot set to each of rn.ids in turn; r
// holds the first of them.
type streamYield func(r []store.ID, free int, rn idRun) bool

// idRun is a run of pipeline rows: the rows that differ only in slot,
// which takes each of ids in turn — a store run (store.Run) bound into a
// row. The last pattern of a join hands each of its runs to its
// continuation whole; slot < 0 is a single row.
type idRun struct {
	slot int
	ids  []store.ID
}

// oneRow is the run of a single row.
var oneRow = idRun{slot: -1}

// each hands fn the rows of a run one at a time, writing each ID into r
// before the call. It is the one place a run is taken apart, for every
// continuation that must see rows singly: a FILTER that reads the run's
// variable, a later group element (OPTIONAL, UNION, MINUS, BIND, VALUES,
// a nested group or BGP), MINUS's right side, EXPLAIN's per-node hooks
// and a sink that cannot fold the run.
func each(r []store.ID, rn idRun, fn func() bool) bool {
	if rn.slot < 0 {
		return fn()
	}
	for _, id := range rn.ids {
		r[rn.slot] = id
		if !fn() {
			return false
		}
	}
	return true
}

// streamExec drives a compiled plan depth-first. Row copies live in a
// per-level scratch stack: a frame at level d only ever writes levels
// ≥ d, so a parent's row is stable while its descendants iterate.
type streamExec struct {
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), fetched once per run for alive
	ex     *idExec
	levels [][]store.ID
	runs   [][]store.ID // per level: a run filtered keeps whole
	frames []*patFrame  // per level, like levels
	orders map[*cBGP][]int
	minus  map[*cMinus]*rowbuf
	tick   int
	err    error

	// prof collects the per-node EXPLAIN profile; nil (the default)
	// keeps every hook to a single pointer check per node invocation.
	prof *profiler
}

// runScratch returns the reusable run buffer of scratch level d, empty.
func (s *streamExec) runScratch(d int) []store.ID {
	for len(s.runs) <= d {
		s.runs = append(s.runs, nil)
	}
	return s.runs[d][:0]
}

// scratch returns the reusable row buffer for scratch level d.
func (s *streamExec) scratch(d int) []store.ID {
	for len(s.levels) <= d {
		s.levels = append(s.levels, make([]store.ID, s.ex.nslots))
	}
	return s.levels[d]
}

// alive polls the context for a row or run that reached the sink: a
// non-blocking receive, where ctx.Err() would take the context's mutex
// once per row.
func (s *streamExec) alive() bool {
	select {
	case <-s.done:
		s.err = s.ctx.Err()
		return false
	default:
		return true
	}
}

// tickOK samples the context during index scans so a cancellation is
// noticed even while no row is reaching the consumer.
func (s *streamExec) tickOK() bool {
	s.tick++
	if s.tick&255 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
	}
	return true
}

func (s *streamExec) streamGroup(g *cgroup, row []store.ID, free int, yield streamYield) bool {
	return s.streamElems(g, 0, row, free, yield)
}

// streamElems runs element i of the group on one row. Its output goes to
// element i+1 one row at a time, or — past the last element — through
// the group's FILTERs to yield, runs whole.
func (s *streamExec) streamElems(g *cgroup, i int, row []store.ID, free int, yield streamYield) bool {
	if s.err != nil {
		return false
	}
	if s.prof != nil {
		// only ever reached with i == 0, from streamGroup: under EXPLAIN
		// profElems sequences the rest of the group itself
		return s.profGroup(g, row, free, yield)
	}
	if i == len(g.elems) {
		return s.filtered(g, row, free, oneRow, yield)
	}
	if i+1 == len(g.elems) && len(g.filters) == 0 {
		return s.streamNode(g.elems[i], row, free, yield)
	}
	return s.streamNode(g.elems[i], row, free, func(r []store.ID, f int, rn idRun) bool {
		if i+1 == len(g.elems) {
			return s.filtered(g, r, f, rn, yield)
		}
		return each(r, rn, func() bool { return s.streamElems(g, i+1, r, f, yield) })
	})
}

// filtered hands yield what of a run passes the group's FILTERs: the run
// whole when no FILTER reads its variable (they hold on every row or on
// none); when only kind tests of its variable read it, the IDs that pass
// them, as a run of their own at scratch level free; else row by row.
func (s *streamExec) filtered(g *cgroup, r []store.ID, free int, rn idRun, yield streamYield) bool {
	if len(g.filters) == 0 {
		return yield(r, free, rn)
	}
	kinds, read := g.filtersRead(rn.slot)
	switch {
	case !read:
		return !s.passes(g, r, -1) || yield(r, free, rn)
	case kinds == 0:
		return each(r, rn, func() bool { return !s.passes(g, r, -1) || yield(r, free, oneRow) })
	}
	ids := s.runScratch(free)
	for _, id := range rn.ids {
		if kinds.has(s.ex.kind(id)) {
			ids = append(ids, id)
		}
	}
	s.runs[free] = ids
	if len(ids) == 0 {
		return true
	}
	r[rn.slot] = ids[0]
	return !s.passes(g, r, rn.slot) || yield(r, free+1, idRun{slot: rn.slot, ids: ids})
}

// filtersRead reports whether a FILTER of the group reads slot (never,
// for -1, a single row's) and, when every one that does is a kind test of
// it alone, the kinds that pass all of them (0 otherwise).
func (g *cgroup) filtersRead(slot int) (kinds kindBits, read bool) {
	kinds = anyKind
	for _, f := range g.filters {
		if !slices.Contains(f.slots, slot) {
			continue
		}
		read = true
		if f.kindSlot != slot {
			kinds = 0
		}
		kinds &= f.kinds
	}
	return kinds, read
}

// profGroup and profElems are streamGroup and streamElems under EXPLAIN:
// the same sequencing with the group, each element and the FILTER pass
// observed. They are a separate pair, out of line, because the hooks'
// closures would otherwise sit in every frame of the unprofiled
// recursion (see plan.run on what a frame costs there). Every hook takes
// its input's runs apart (observe), so everything here sees single rows.
//
//go:noinline
func (s *streamExec) profGroup(g *cgroup, row []store.ID, free int, yield streamYield) bool {
	return s.prof.node(g, func(y streamYield) bool { return s.profElems(g, 0, row, free, y) }, yield)
}

func (s *streamExec) profElems(g *cgroup, i int, row []store.ID, free int, yield streamYield) bool {
	if s.err != nil {
		return false
	}
	if i == len(g.elems) {
		if len(g.filters) == 0 {
			return yield(row, free, oneRow)
		}
		return s.prof.node(&g.filters[0], func(y streamYield) bool { return !s.passes(g, row, -1) || y(row, free, oneRow) }, yield)
	}
	el := g.elems[i]
	next := func(r []store.ID, f int, _ idRun) bool { // observe hands rows singly
		return s.profElems(g, i+1, r, f, yield)
	}
	if _, nested := el.(*cgroup); nested {
		return s.streamNode(el, row, free, next) // streamGroup observes it
	}
	return s.prof.node(el, func(y streamYield) bool { return s.streamNode(el, row, free, y) }, next)
}

// passes reports whether every FILTER of the group holds on the row,
// leaving out the kind tests of slot skip, which the caller has applied.
func (s *streamExec) passes(g *cgroup, row []store.ID, skip int) bool {
	for i := range g.filters {
		f := &g.filters[i]
		if skip >= 0 && f.kindSlot == skip {
			continue
		}
		if ok, err := f.test(s.ex.at(row)); err != nil || !ok {
			return false
		}
	}
	return true
}

// streamNode runs one plan node on one row. Only a BGP yields runs; every
// other node yields single rows, and OPTIONAL and UNION pass their inner
// groups' runs through.
func (s *streamExec) streamNode(n cnode, row []store.ID, free int, yield streamYield) bool {
	switch x := n.(type) {
	case *cBGP:
		if s.prof != nil {
			return s.profPatterns(x, s.bgpOrder(x, row), 0, row, free, yield)
		}
		return s.streamPatterns(x, s.bgpOrder(x, row), 0, row, free, yield)
	case *cgroup:
		return s.streamGroup(x, row, free, yield)
	case *cOptional:
		matched := false
		if !s.streamGroup(x.inner, row, free, func(r []store.ID, f int, rn idRun) bool {
			matched = true
			return yield(r, f, rn)
		}) {
			return false
		}
		if !matched {
			return yield(row, free, oneRow)
		}
		return true
	case *cUnion:
		if !s.streamGroup(x.left, row, free, yield) {
			return false
		}
		return s.streamGroup(x.right, row, free, yield)
	case *cMinus:
		right := s.minusRight(x, free)
		if s.err != nil {
			return false
		}
		for j := 0; j < right.n; j++ {
			rr := right.row(j)
			shared, equal := false, true
			for sl := range row {
				if row[sl] != store.NoID && rr[sl] != store.NoID {
					shared = true
					if row[sl] != rr[sl] {
						equal = false
						break
					}
				}
			}
			if shared && equal {
				return true // row removed; keep streaming
			}
		}
		return yield(row, free, oneRow)
	case *cBind:
		nr := s.scratch(free)
		copy(nr, row)
		if t, err := x.val(s.ex.at(row)); err == nil {
			nr[x.slot] = s.ex.intern(t)
		}
		return yield(nr, free+1, oneRow)
	case *cValues:
		for _, vr := range x.rows {
			nr := s.scratch(free)
			copy(nr, row)
			ok := true
			for j, slot := range x.slots {
				v := vr[j]
				if v == store.NoID {
					continue // UNDEF
				}
				if cur := nr[slot]; cur != store.NoID {
					if cur != v {
						ok = false
						break
					}
				} else {
					nr[slot] = v
				}
			}
			if ok && !yield(nr, free+1, oneRow) {
				return false
			}
		}
		return true
	}
	return true
}

// bgpOrder computes (once per node) the greedy join order, seeded with
// the bound slots of the first row to reach the node: patterns connected
// to an already-bound variable first (a disconnected pattern builds a
// cartesian product), then the smallest estimated cardinality. Each
// pattern's cardinality is read from the store once — the rounds re-run
// only the arithmetic on it — and a one-pattern BGP, which has nothing
// to order, asks nothing.
func (s *streamExec) bgpOrder(b *cBGP, row []store.ID) []int {
	if o, ok := s.orders[b]; ok {
		return o
	}
	n := len(b.pats)
	cards := make([]int, n)
	if n > 1 {
		for i := range b.pats {
			cards[i] = s.ex.cardinality(&b.pats[i])
		}
	}
	bound := make([]bool, s.ex.nslots)
	for sl, v := range row {
		if v != store.NoID {
			bound[sl] = true
		}
	}
	used := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		first := len(order) == 0
		best, bestCard, bestConn := -1, 0, false
		for i := range b.pats {
			if used[i] {
				continue
			}
			p := &b.pats[i]
			conn := first
			for _, sl := range p.slots {
				if bound[sl] {
					conn = true
					break
				}
			}
			card := s.ex.refine(cards[i], p, bound)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && card < bestCard) {
				best, bestCard, bestConn = i, card, conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, sl := range b.pats[best].slots {
			bound[sl] = true
		}
	}
	s.orders[b] = order
	return order
}

// streamPatterns is the depth-first index nested-loop join over store
// runs: pattern k binds each run's shared positions into the row and
// recurses into k+1 once per ID of the run, and the last pattern hands
// each run to yield whole — so a complete solution reaches the consumer
// as soon as the last pattern matches (the early-exit path LIMIT and
// cancellation ride on), and a sink that can fold a run does so in one
// call.
func (s *streamExec) streamPatterns(b *cBGP, order []int, k int, row []store.ID, free int, yield streamYield) bool {
	if k == len(order) {
		return yield(row, free, oneRow)
	}
	p := &b.pats[order[k]]
	var pat store.IDPattern
	sConc := resolvePos(p.s, row, &pat.S)
	pConc := resolvePos(p.p, row, &pat.P)
	oConc := resolvePos(p.o, row, &pat.O)
	if pat.S > s.ex.maxStore || pat.P > s.ex.maxStore || pat.O > s.ex.maxStore {
		return true // locally-interned term: cannot match the store
	}
	if sConc && pConc && oConc {
		if !s.tickOK() {
			return false
		}
		if s.ex.rd.HasID(pat.S, pat.P, pat.O) {
			return s.streamPatterns(b, order, k+1, row, free, yield)
		}
		return true
	}
	f := s.frame(free)
	f.b, f.order, f.k, f.p, f.row, f.free, f.yield, f.more = b, order, k, p, row, free, yield, true
	if err := s.ex.rd.Runs(pat, f.onRun); err != nil {
		if s.err == nil {
			s.err = err
		}
		return false
	}
	return f.more
}

// patFrame is one level of streamPatterns: the probe in progress at that
// level and the store callback bound to it once, so that a probe
// allocates nothing. Only one probe is ever in progress per level.
type patFrame struct {
	s     *streamExec
	b     *cBGP
	order []int
	k     int
	p     *cpattern
	row   []store.ID
	free  int
	yield streamYield
	more  bool                 // false once the continuation or the context stopped the scan
	onRun func(store.Run) bool // f.run
}

// frame returns the reusable frame of scratch level d.
func (s *streamExec) frame(d int) *patFrame {
	for len(s.frames) <= d {
		s.frames = append(s.frames, nil)
	}
	f := s.frames[d]
	if f == nil {
		f = &patFrame{s: s}
		f.onRun = f.run
		s.frames[d] = f
	}
	return f
}

// run binds one store run into the frame's row: the run's shared
// positions once, then its varying one per ID (or, for the last pattern,
// not at all: the continuation gets the run). Under a top-k bound (see
// topkBound) it skips the run, or an ID of it at an upper level, whose
// key on the bound's variable sorts past the bound.
func (f *patFrame) run(rn store.Run) bool {
	s, p := f.s, f.p
	if !s.tickOK() {
		f.more = false
		return false
	}
	nr := s.scratch(f.free)
	copy(nr, f.row)
	if !bindPos(p.s, rn.S, nr) || !bindPos(p.p, rn.P, nr) || !bindPos(p.o, rn.O, nr) {
		return true
	}
	bd := f.b.bound
	if bd != nil && bd.worst != 0 && f.row[bd.slot] == store.NoID {
		// a fixed position bound the top-k key: the whole run sorts alike
		if id := nr[bd.slot]; id != store.NoID && bd.past(s.ex.sortPrefix(id)) {
			return true
		}
	}
	slot := p.at(rn.At).slot // a variable: the position was not concrete
	ids := rn.IDs
	if v := nr[slot]; v != store.NoID {
		// the variable repeats in the pattern and is bound already: the
		// run holds it at most once
		i, ok := slices.BinarySearch(ids, v)
		if !ok {
			return true
		}
		ids = ids[i : i+1]
	}
	if f.k+1 == len(f.order) {
		nr[slot] = ids[0]
		f.more = f.yield(nr, f.free+1, idRun{slot: slot, ids: ids})
		return f.more
	}
	prune := bd != nil && bd.slot == slot
	for _, id := range ids {
		if !s.tickOK() {
			f.more = false
			return false
		}
		if prune && bd.worst != 0 && bd.past(s.ex.sortPrefix(id)) {
			continue // the subtree under id sorts past the top-k bound
		}
		nr[slot] = id
		if !s.streamPatterns(f.b, f.order, f.k+1, nr, f.free+1, f.yield) {
			f.more = false
			return false
		}
	}
	return true
}

// profPatterns is the EXPLAIN twin of the streamPatterns call: it hands
// streamPatterns one pattern at a time (a one-element order), so the
// per-pattern hook sits between patterns and the inner loop is untouched.
func (s *streamExec) profPatterns(b *cBGP, order []int, k int, row []store.ID, free int, yield streamYield) bool {
	if k == len(order) {
		return yield(row, free, oneRow)
	}
	s.prof.nodes[&b.pats[order[k]]].Order = k + 1
	return s.prof.node(&b.pats[order[k]], func(y streamYield) bool {
		return s.streamPatterns(b, order[k:k+1], 0, row, free, y)
	}, func(r []store.ID, f int, _ idRun) bool { // observe hands rows singly
		return s.profPatterns(b, order, k+1, r, f, yield)
	})
}

// minusRight collects (once per node) the right side of a MINUS through
// the same pipeline, from an empty row: MINUS is uncorrelated. Levels
// below free belong to the frames the collection is called from.
func (s *streamExec) minusRight(x *cMinus, free int) *rowbuf {
	if r, ok := s.minus[x]; ok {
		return r
	}
	right := &rowbuf{stride: s.ex.nslots}
	s.streamGroup(x.inner, make([]store.ID, s.ex.nslots), free, func(r []store.ID, _ int, rn idRun) bool {
		return each(r, rn, func() bool {
			right.add(r)
			return true
		})
	})
	s.minus[x] = right
	return right
}
