package sparql

// The ID-space executor. Solution rows are flat []store.ID slices of
// length nslots, so the join inner loop (stream.go) allocates no per-row
// maps and compares variables with uint32 equality. Joins run as
// depth-first index nested loops over the store's sorted posting lists
// (fully-bound patterns degrade to a binary search — a merge against the
// sorted list). Terms are materialized only where an expression's slot
// program reads one (slotprog.go) and at projection, where a finished ID
// row becomes one positional []rdf.Term aligned with the projected
// variables (the zero Term marks an unbound one) in a buffer the run
// reuses.
//
// There is one evaluator of compiled plans: Exec, Stream and Explain all
// compile a plan and run it through the same push pipeline; they differ
// only in where the finished rows go. Every solution modifier is a
// sink on that pipeline, chosen from the query's own shape.

import (
	"context"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Result holds the outcome of query execution.
type Result struct {
	// Vars is the projected variable list, in projection order.
	Vars []string
	// Rows are the solution bindings. Unbound projected variables are
	// simply missing from the map.
	Rows []Binding
	// Ask is true for ASK queries, in which case Boolean holds the answer
	// and Vars/Rows are empty.
	Ask     bool
	Boolean bool
	// Graph holds the result of a CONSTRUCT query (nil otherwise).
	Graph *rdf.Graph
}

// Exec parses and executes a query against any storage tier.
func Exec(st store.Queryable, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return q.Exec(st)
}

// Exec executes the parsed query against st, draining the pipeline
// straight into a materialized Result.
func (q *Query) Exec(st store.Queryable) (*Result, error) {
	p, err := q.compile(st)
	if err != nil {
		return nil, err
	}
	var rows []Binding
	err = p.run(context.Background(), nil, nil, func(row []rdf.Term) bool {
		rows = append(rows, bindingOf(p.vars, row))
		return true
	})
	if err != nil {
		return nil, err
	}
	return p.result(rows), nil
}

// rowbuf is a packed set of solution rows: n rows of stride IDs each,
// stored contiguously. The zero ID (store.NoID) marks an unbound slot.
type rowbuf struct {
	data   []store.ID
	stride int
	n      int
}

func (rb *rowbuf) row(i int) []store.ID {
	return rb.data[i*rb.stride : (i+1)*rb.stride]
}

// add appends a copy of r (stride IDs) to the buffer.
func (rb *rowbuf) add(r []store.ID) {
	rb.data = append(rb.data, r...)
	rb.n++
}

// window restricts the buffer to rows [offset, offset+limit); limit < 0
// means unbounded. It mutates the buffer in place.
func (rb *rowbuf) window(offset, limit int) *rowbuf {
	if offset > 0 {
		if offset >= rb.n {
			rb.data, rb.n = nil, 0
			return rb
		}
		rb.data = rb.data[offset*rb.stride:]
		rb.n -= offset
	}
	if limit >= 0 && limit < rb.n {
		rb.data = rb.data[:limit*rb.stride]
		rb.n = limit
	}
	return rb
}

// idExec is the executor state a compiled plan is bound to: one store
// snapshot, the executor-local dictionary for terms the store has never
// seen (BIND results, VALUES constants) and the row the slot programs
// read.
type idExec struct {
	rd       store.ReaderAPI
	maxStore store.ID // highest store-issued ID; larger IDs are local

	local    []rdf.Term // local terms; ID maxStore+1+i
	localIDs map[rdf.Term]store.ID

	nslots int
	names  []string // slot → variable name
	xrow   exprRow  // see at
}

func newIDExec(st store.Queryable) *idExec {
	rd := st.Snapshot()
	e := &idExec{
		rd:       rd,
		maxStore: rd.MaxID(),
		localIDs: make(map[rdf.Term]store.ID),
	}
	e.xrow.ex = e
	return e
}

// at points the executor's expression row at r, for one slot program
// call: a plan runs on one goroutine, and no program calls another on a
// different row.
func (e *idExec) at(r []store.ID) *exprRow {
	e.xrow.ids = r
	return &e.xrow
}

// release returns what the snapshot holds (on the disk tier, its pins on
// segment files); the executor must not read the store afterwards. The
// memory tier's reader has nothing to release. Safe to call twice.
func (e *idExec) release() {
	if rd, ok := e.rd.(interface{ Release() }); ok {
		rd.Release()
	}
}

// intern returns the unique ID for t: the store's if it knows the term,
// otherwise an executor-local one. Equal terms always map to equal IDs.
func (e *idExec) intern(t rdf.Term) store.ID {
	if id := e.rd.Lookup(t); id != store.NoID {
		return id
	}
	if id, ok := e.localIDs[t]; ok {
		return id
	}
	e.local = append(e.local, t)
	id := e.maxStore + store.ID(len(e.local))
	e.localIDs[t] = id
	return id
}

// term materializes the term for an ID (store or local).
func (e *idExec) term(id store.ID) rdf.Term {
	if id <= e.maxStore {
		return e.rd.Term(id)
	}
	return e.local[id-e.maxStore-1]
}

// sortPrefix is rdf.SortPrefix of the term for an ID (store or local),
// which the store answers without materializing the term.
func (e *idExec) sortPrefix(id store.ID) uint64 {
	if id <= e.maxStore {
		return e.rd.SortPrefix(id)
	}
	return rdf.SortPrefix(e.local[id-e.maxStore-1])
}

// kind is the kind of the term for an ID (store or local), which the
// store answers without materializing the term.
func (e *idExec) kind(id store.ID) rdf.TermKind {
	if id <= e.maxStore {
		return e.rd.Kind(id)
	}
	return e.local[id-e.maxStore-1].Kind
}

// --- join support ---

// cardinality returns the exact index cardinality of p over its constant
// positions — the one store call an estimate costs, and on the disk tier
// a walk of the range.
func (e *idExec) cardinality(p *cpattern) int {
	var pat store.IDPattern
	if !p.s.isVar() {
		pat.S = p.s.id
	}
	if !p.p.isVar() {
		pat.P = p.p.id
	}
	if !p.o.isVar() {
		pat.O = p.o.id
	}
	if pat.S > e.maxStore || pat.P > e.maxStore || pat.O > e.maxStore {
		return 0 // a constant the store has never seen matches nothing
	}
	return e.rd.CardinalityIDs(pat)
}

// refine turns p's cardinality into the expected number of matches given
// the current bound set: an average-fanout division for every row-bound
// variable.
func (e *idExec) refine(card int, p *cpattern, bound []bool) int {
	if card == 0 {
		return 0
	}
	if p.s.isVar() && bound[p.s.slot] {
		card = divClamp(card, e.rd.DistinctSubjects())
	}
	if p.p.isVar() && bound[p.p.slot] {
		card = divClamp(card, e.rd.DistinctPredicates())
	}
	if p.o.isVar() && bound[p.o.slot] {
		card = divClamp(card, e.rd.DistinctObjects())
	}
	return card
}

func divClamp(a, b int) int {
	if b < 1 {
		b = 1
	}
	a /= b
	if a < 1 {
		a = 1
	}
	return a
}

// resolvePos writes the concrete ID of a pattern position (constant or
// row-bound variable) into dst, reporting whether the position is
// concrete for this row.
func resolvePos(t cterm, r []store.ID, dst *store.ID) bool {
	if !t.isVar() {
		*dst = t.id
		return true
	}
	if v := r[t.slot]; v != store.NoID {
		*dst = v
		return true
	}
	return false
}

// bindPos binds a matched ID into the row, checking repeated-variable
// consistency. Constant positions were already matched by the index, and
// NoID — a run's varying position — binds nothing.
func bindPos(t cterm, v store.ID, r []store.ID) bool {
	if !t.isVar() || v == store.NoID {
		return true
	}
	if cur := r[t.slot]; cur != store.NoID {
		return cur == v
	}
	r[t.slot] = v
	return true
}

// --- result shaping ---

// distinctRows deduplicates rows on the given slot tuple (a slot of -1
// reads as unbound), keeping first occurrences in order; no term is
// materialized.
func distinctRows(rb *rowbuf, slots []int) *rowbuf {
	out := &rowbuf{stride: rb.stride}
	seen := idTable{width: len(slots)}
	for i := 0; i < rb.n; i++ {
		if _, added := seen.addAt(rb.row(i), slots); added {
			out.add(rb.row(i))
		}
	}
	return out
}

// corder is a compiled ORDER BY condition: the slots it reads and its
// value program.
type corder struct {
	slots []int
	val   valProg
}

// orderTerm is ORDER BY condition c's key on row r; false is an
// evaluation error (an unbound ?v included), which sorts first (the term
// is then never read).
func (e *idExec) orderTerm(c *corder, r []store.ID) (rdf.Term, bool) {
	t, err := c.val(e.at(r))
	return t, err == nil
}

// sortRows orders the rows by the ORDER BY conditions, materializing one
// key term per (row, condition) — the boundary where terms are needed.
// The flat key storage is viewed as one OrderKey per row so the
// comparison is CompareOrderKeys, shared with the top-k heap and the
// federated ordered merge — the three orders cannot drift apart.
func (e *idExec) sortRows(rb *rowbuf, conds []OrderCond, order []corder) {
	nc := len(conds)
	keys := make([]rdf.Term, rb.n*nc)
	errs := make([]bool, rb.n*nc)
	oks := make([]OrderKey, rb.n)
	for i := 0; i < rb.n; i++ {
		r := rb.row(i)
		for ci := range conds {
			t, ok := e.orderTerm(&order[ci], r)
			keys[i*nc+ci], errs[i*nc+ci] = t, !ok
		}
		oks[i] = OrderKey{keys: keys[i*nc : (i+1)*nc], errs: errs[i*nc : (i+1)*nc]}
	}
	idx := make([]int, rb.n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return CompareOrderKeys(conds, oks[idx[a]], oks[idx[b]]) < 0
	})
	sorted := make([]store.ID, 0, rb.n*rb.stride)
	for _, i := range idx {
		sorted = append(sorted, rb.row(i)...)
	}
	rb.data = sorted
}

// --- query execution over the compiled plan ---

// aliasProj is a compiled (expr AS ?var) projection element.
type aliasProj struct {
	val  slotExpr
	slot int
}

// Vars is the variable list a SELECT heads its rows with: the SELECT
// clause's, or for SELECT * every variable of the pattern, sorted.
func (q *Query) Vars() []string {
	if q.Star {
		return q.starVars()
	}
	vars := make([]string, len(q.Select))
	for i, it := range q.Select {
		vars[i] = it.Var
	}
	return vars
}

// starVars is every variable the pattern can bind, sorted.
func (q *Query) starVars() []string {
	seen := map[string]bool{}
	var vars []string
	collectVars(q.Where, func(v string) {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	})
	sort.Strings(vars)
	return vars
}

func collectVars(p GraphPattern, add func(string)) {
	switch x := p.(type) {
	case *BGP:
		for _, tp := range x.Patterns {
			for _, v := range tp.Vars() {
				add(v)
			}
		}
	case *GroupPattern:
		for _, el := range x.Elems {
			collectVars(el, add)
		}
	case *OptionalPattern:
		collectVars(x.Inner, add)
	case *UnionPattern:
		collectVars(x.Left, add)
		collectVars(x.Right, add)
	case *MinusPattern:
		// MINUS does not bind
	case *BindPattern:
		add(x.Var)
	case *ValuesPattern:
		for _, v := range x.Vars {
			add(v)
		}
	}
}

// plan is a query compiled against one store snapshot: the pattern tree,
// the grouping surface of a grouped SELECT or the projection aliases of a
// plain one, and the slots the shared tail sorts, deduplicates and
// projects on.
type plan struct {
	q    *Query
	ex   *idExec
	root *cgroup
	vars []string // projected variables (SELECT)

	agg       *groupSpec  // non-nil: GROUP BY / HAVING / aggregate projections
	aliases   []aliasProj // of a SELECT without grouping
	projSlots []int       // slot per projected variable; -1 = never bound
	order     []corder    // ORDER BY, condition by condition
	binds     []int       // the slots a BIND writes

	// answers of the non-SELECT forms, set by run
	boolean bool
	graph   *rdf.Graph
}

// compile lowers the query against a snapshot of st. ORDER BY references
// and projection aliases are resolved before the slot table freezes, so
// every variable the sinks touch has a slot.
func (q *Query) compile(st store.Queryable) (*plan, error) {
	ex := newIDExec(st)
	comp := &compiler{ex: ex, slots: newSlotmap()}
	root, err := comp.group(q.Where)
	if err != nil {
		ex.release()
		return nil, err
	}
	p := &plan{q: q, ex: ex, root: root, binds: comp.binds}
	if q.Form == FormSelect {
		for _, c := range q.OrderBy {
			p.order = append(p.order, corder{slots: comp.exprVars(c.Expr), val: comp.expr().val(c.Expr)})
		}
		if q.NeedsGrouping() {
			p.agg = comp.grouping(q)
		} else {
			for _, it := range q.Select {
				if it.Expr != nil {
					p.aliases = append(p.aliases, aliasProj{val: comp.slotExpr(it.Expr), slot: comp.slots.slot(it.Var)})
				}
			}
		}
		p.vars = q.Vars()
		p.projSlots = make([]int, len(p.vars))
		for i, v := range p.vars {
			p.projSlots[i] = comp.slots.lookup(v)
		}
	}
	// the slot table is final: no variable may be assigned a slot after this
	ex.nslots, ex.names = comp.slots.count(), comp.slots.names
	return p, nil
}

// result wraps the plan's answer — rows for SELECT, the boolean or the
// graph otherwise — as a materialized Result.
func (p *plan) result(rows []Binding) *Result {
	return &Result{Vars: p.vars, Rows: rows, Ask: p.q.Form == FormAsk, Boolean: p.boolean, Graph: p.graph}
}

// project materializes one output row of a SELECT into out, aligned with
// p.vars (for SELECT * every variable the pattern can bind).
func (p *plan) project(r []store.ID, out []rdf.Term) []rdf.Term {
	for j, s := range p.projSlots {
		out[j] = rdf.Term{}
		if s >= 0 && r[s] != store.NoID {
			out[j] = p.ex.term(r[s])
		}
	}
	return out
}

// run drives the plan's pattern tree depth-first into the sink its shape
// selects (see sink), then runs the blocking sink's finisher, if any.
// Finished rows go to emit (false abandons the run) as positional terms
// aligned with p.vars, in one buffer the run reuses: a row is the
// receiver's only until emit returns. ASK and
// CONSTRUCT answers land in the plan. ctx is consulted on every row
// reaching the sink, on every row emitted and periodically inside index
// scans, so no shape outruns a cancellation. reg and prof are optional.
//
// Under Stream this runs on the consumer's goroutine — a server's request
// goroutine, whose stack, once grown, persists across the keep-alive
// requests of its connection — and every frame between here and the sink
// is a call on each row. That is why run only drives, the sink is one
// fused closure rather than a chain of them, and the EXPLAIN hooks inside
// it are leaf calls.
//
// A plan runs once: the snapshot it was compiled against is released
// when run returns.
func (p *plan) run(ctx context.Context, reg *obs.Registry, prof *profiler, emit func([]rdf.Term) bool) error {
	defer p.ex.release()
	se := &streamExec{ctx: ctx, done: ctx.Done(), ex: p.ex, prof: prof, orders: map[*cBGP][]int{}, minus: map[*cMinus]*rowbuf{}}
	where := prof.addStage("where")
	sink, finish := p.sink(se, reg, emit)
	drive := func(yield streamYield) bool {
		return se.streamGroup(p.root, make([]store.ID, p.ex.nslots), 0, yield)
	}
	if prof != nil {
		observe(&where.RowsIn, &where.RowsOut, &where.TimeNs, drive, sink)
	} else {
		drive(sink)
	}
	if se.err != nil || finish == nil {
		return se.err
	}
	return finish()
}

// sink builds the solution-modifier sink, picked from the query's shape
// alone. ASK stops at the first row. A plain SELECT applies aliases,
// DISTINCT, the window and the projection row by row and stops the
// pipeline the moment the window is full. Every other shape ends in a
// sink that holds rows back — ORDER BY … LIMIT without DISTINCT in the
// bounded top-k heap, every grouped shape in the streaming hash-group, the
// rest (unwindowed ORDER BY, ORDER BY + DISTINCT, CONSTRUCT) in a rowbuf
// arena — and comes with the finisher to call once the pattern is
// exhausted: it leaves the held rows (one per group, for a grouping) in
// that arena and runs the one batch tail over it — sort, deduplicate,
// window, project.
//
// Three sinks fold a run (see idRun) whose varying slot they do not read
// row by row: the hash-group looks its group up once and adds the run's
// length to a count, DISTINCT probes once, and top-k evaluates one key.
// They see the run's rows in the order they would have seen them one at
// a time, so every answer, counter and tie is what the rows would give.
// A run over a slot the sink reads, and every run of another sink, is
// taken apart into rows.
func (p *plan) sink(se *streamExec, reg *obs.Registry, emit func([]rdf.Term) bool) (sink streamYield, finish func() error) {
	q, ex, prof := p.q, p.ex, se.prof
	out := make([]rdf.Term, len(p.vars))
	if q.Form == FormAsk {
		return func([]store.ID, int, idRun) bool {
			p.boolean = true
			return false
		}, nil
	}
	// reads[s]: the sink reads slot s on every row, so a run over s is
	// taken apart. Aliases read their arguments and write their slots.
	reads := make([]bool, ex.nslots)
	var stAliases *ExplainStage
	if len(p.aliases) > 0 {
		stAliases = prof.addStage("aliases")
	}
	aliasTmp := make([]store.ID, len(p.aliases))
	for _, a := range p.aliases {
		a.val.markReads(reads)
		reads[a.slot] = true
	}
	// The aliases are written into a copy of the row: the pipeline's row
	// is the run's, and its next row must not see this one's aliases.
	var aliased []store.ID
	if len(p.aliases) > 0 {
		aliased = make([]store.ID, ex.nslots)
	}
	withAliases := func(r []store.ID) []store.ID {
		if aliased == nil {
			return r
		}
		copy(aliased, r)
		p.applyAliases(aliased, aliasTmp)
		prof.lap(stAliases, true)
		return aliased
	}

	var (
		blocking string // stage name of the sink that holds rows back; "" = none
		streamOp string // its hbold_stream_op_* label, for the incremental ones
		hold     func(r []store.ID) bool
		fold     func(r []store.ID, rn idRun) // takes a run whole; nil: this sink never does
		pruned   func(r []store.ID) bool      // the top-k bound drops the row; nil: no bound
		heap     *rowTopK
		agg      *streamAgg
		buf      = &rowbuf{stride: ex.nslots}
	)
	switch {
	case q.Form == FormConstruct:
		// the window applies to the solution sequence, so the buffer can
		// stop the pipeline once it is full
		blocking = "construct"
		hold = func(r []store.ID) bool {
			buf.add(r)
			return q.Limit < 0 || buf.n < q.Offset+q.Limit
		}
	case p.agg != nil:
		blocking, streamOp = "aggregate", "hash-group"
		agg = newStreamAgg(ex, p.agg)
		for i := range p.agg.keys {
			p.agg.keys[i].markReads(reads)
		}
		hold = func(r []store.ID) bool {
			agg.add(r)
			return true
		}
		fold = func(r []store.ID, rn idRun) { agg.addRun(r, rn.slot, rn.ids) }
	case len(q.OrderBy) > 0 && q.topKBound() >= 0 && !q.Distinct && !q.Reduced:
		// DISTINCT is excluded: deduplication after the heap could shrink
		// the window below k.
		blocking, streamOp = "top-k", "top-k"
		heap = newRowTopK(q.OrderBy, q.topKBound())
		for _, c := range p.order {
			for _, sl := range c.slots {
				reads[sl] = true
			}
		}
		if _, plain := q.OrderBy[0].Expr.(*ExprVar); plain {
			bd := &topkBound{slot: p.order[0].slots[0], desc: q.OrderBy[0].Desc}
			heap.bound = bd
			pruned = func(r []store.ID) bool {
				id := r[bd.slot]
				return bd.worst != 0 && id != store.NoID && bd.past(ex.sortPrefix(id))
			}
			if !p.rebinds(bd.slot) {
				p.root.publishTo(bd)
			}
		}
		// one key per run: no condition reads the run's slot
		var key OrderKey
		fold = func(r []store.ID, rn idRun) {
			heap.offerRun(r, rn, ex.orderKeyOfRowInto(p.order, r, &key))
		}
		hold = func(r []store.ID) bool {
			fold(r, oneRow)
			return true
		}
	case len(q.OrderBy) > 0:
		blocking = "order-by"
		hold = func(r []store.ID) bool {
			buf.add(r)
			return true
		}
	}

	if blocking == "" {
		var seen *idTable
		var stDistinct *ExplainStage
		if q.Distinct || q.Reduced {
			seen = &idTable{width: len(p.projSlots)}
			stDistinct = prof.addStage("distinct")
			for _, sl := range p.projSlots {
				if sl >= 0 {
					reads[sl] = true
				}
			}
		}
		stWindow, stProject := prof.addStage("window"), prof.addStage("project")
		skipped, emitted := 0, 0
		row := func(r []store.ID) bool {
			if !se.alive() {
				return false
			}
			prof.start()
			r = withAliases(r)
			if seen != nil {
				_, added := seen.addAt(r, p.projSlots)
				prof.lap(stDistinct, added)
				if !added {
					return true
				}
			}
			if skipped < q.Offset {
				skipped++
				prof.lap(stWindow, false)
				return true
			}
			if q.Limit >= 0 && emitted >= q.Limit { // LIMIT 0
				prof.lap(stWindow, false)
				return false
			}
			prof.lap(stWindow, true)
			p.project(r, out)
			prof.lap(stProject, true)
			if !emit(out) {
				return false
			}
			emitted++
			return q.Limit < 0 || emitted < q.Limit
		}
		return func(r []store.ID, _ int, rn idRun) bool {
			if seen != nil && rn.slot >= 0 && !reads[rn.slot] {
				// the run's rows project alike: its first stands for all
				return row(r)
			}
			return each(r, rn, func() bool { return row(r) })
		}, nil
	}

	stBlocking := prof.addStage(blocking)
	if reg != nil && streamOp != "" {
		reg.CounterVec("hbold_stream_op_total", "Streaming operator activations by operator.", "op").With(streamOp).Inc()
	}
	var scanned int64 // solutions that reached the sink's operator, not runs
	row := func(r []store.ID) bool {
		if !se.alive() {
			return false
		}
		prof.start()
		r = withAliases(r)
		if pruned != nil && pruned(r) {
			return true
		}
		scanned++
		more := hold(r)
		prof.lap(stBlocking, false) // its RowsOut is the finisher's
		return more
	}
	sink = func(r []store.ID, _ int, rn idRun) bool {
		if fold == nil || rn.slot < 0 || reads[rn.slot] {
			return each(r, rn, func() bool { return row(r) })
		}
		// EXPLAIN hands the sink single rows (observe), so no stage laps here
		if !se.alive() {
			return false
		}
		if r = withAliases(r); pruned != nil && pruned(r) {
			return true
		}
		scanned += int64(len(rn.ids))
		fold(r, rn)
		return true
	}
	return sink, func() error {
		if reg != nil && streamOp != "" {
			reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With(streamOp).Add(float64(scanned))
			if heap != nil {
				reg.Histogram("hbold_stream_topk_heap_rows", "Rows retained by the streaming top-k heap at emit.", nil).Observe(float64(heap.size()))
			} else {
				reg.Histogram("hbold_stream_group_count", "Groups live in the streaming hash aggregation at emit.", nil).Observe(float64(len(agg.order)))
			}
		}
		// The blocking sink's stage stays open across its own finisher;
		// the rest are batch stages over the finished set of ID rows.
		end := prof.resume(stBlocking)
		switch {
		case blocking == "construct":
			// the template reads every bound variable, by slot
			buf.window(q.Offset, q.Limit)
			row := make([]rdf.Term, ex.nslots)
			p.graph = q.Construct(ex.names, func(yield func([]rdf.Term) bool) {
				for i := 0; i < buf.n; i++ {
					for sl, id := range buf.row(i) {
						row[sl] = rdf.Term{}
						if id != store.NoID {
							row[sl] = ex.term(id)
						}
					}
					if !yield(row) {
						return
					}
				}
			})
			end(int64(p.graph.Len()))
			return nil
		case heap != nil:
			for _, en := range heap.sorted() {
				buf.add(en.row)
			}
		case agg != nil:
			agg.emit(buf)
		default: // "order-by": the sort is the blocking stage itself
			ex.sortRows(buf, q.OrderBy, p.order)
		}
		end(int64(buf.n))
		if agg != nil && len(q.OrderBy) > 0 {
			// ORDER BY on a grouped query sees the rows the grouping
			// produced: the projected keys and aliases
			end := prof.stage("order-by", int64(buf.n))
			ex.sortRows(buf, q.OrderBy, p.order)
			end(int64(buf.n))
		}
		if q.Distinct || q.Reduced {
			end := prof.stage("distinct", int64(buf.n))
			buf = distinctRows(buf, p.projSlots)
			end(int64(buf.n))
		}
		end = prof.stage("window", int64(buf.n))
		buf.window(q.Offset, q.Limit)
		end(int64(buf.n))
		end = prof.stage("project", int64(buf.n))
		for i := 0; i < buf.n; i++ {
			if !se.alive() || !emit(p.project(buf.row(i), out)) {
				break
			}
		}
		end(int64(buf.n))
		return se.err
	}
}

// rebinds reports whether a BIND or a projection alias writes slot over
// whatever the pattern bound there, so that the value a join sees is not
// the one the sink orders by.
func (p *plan) rebinds(slot int) bool {
	return slices.Contains(p.binds, slot) || slices.ContainsFunc(p.aliases, func(a aliasProj) bool { return a.slot == slot })
}

// publishTo hands bd to every BGP whose rows reach the sink as they are,
// so that its frames drop the runs past it. The inner group of an
// OPTIONAL and the right side of a MINUS are left out: a row dropped
// there changes which other rows the left join or the difference
// produces, not just whether a worse row arrives.
func (g *cgroup) publishTo(bd *topkBound) {
	for _, el := range g.elems {
		switch x := el.(type) {
		case *cBGP:
			x.bound = bd
		case *cgroup:
			x.publishTo(bd)
		case *cUnion:
			x.left.publishTo(bd)
			x.right.publishTo(bd)
		}
	}
}

// applyAliases evaluates the projection aliases against the pre-alias row
// (aliases cannot see each other), then writes them into their slots.
func (p *plan) applyAliases(r, tmp []store.ID) {
	for j := range p.aliases {
		tmp[j] = p.aliases[j].val.id(p.ex, r)
	}
	for j, a := range p.aliases {
		if tmp[j] != store.NoID {
			r[a.slot] = tmp[j]
		}
	}
}
