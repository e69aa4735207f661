package sparql

// EXPLAIN support: Query.Explain runs the query through the one pipeline
// with a profiler attached, producing the compiled plan tree annotated
// with per-node row counts and timings plus the flat sequence of
// top-level execution stages (where → aliases → top-k/order-by →
// distinct → window → project). The profiled operators are the real
// ones, so the final stage's RowsOut always equals the number of rows
// the same query actually returns.
//
// Accounting happens on the push path: an operator is invoked once per
// input row, every row it passes downstream counts as output, and its
// clock is paused while its continuation — the operators downstream of
// it — runs. The profiler is a nil-by-default field on the pipeline:
// every hook is a single pointer check per plan-node invocation, so the
// unprofiled path stays at full speed.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ExplainNode annotates one compiled plan node.
type ExplainNode struct {
	// Kind is the node type: group, bgp, pattern, filter, optional,
	// union, minus, bind, values.
	Kind string `json:"kind"`
	// Detail is a human-readable rendering (the triple pattern, the
	// bound variable, ...).
	Detail string `json:"detail,omitempty"`
	// Order is the 1-based position the greedy optimizer chose for a
	// pattern within its BGP (0 for non-pattern nodes).
	Order int `json:"order,omitempty"`
	// Calls counts node invocations: one per input row (an OPTIONAL
	// inner group runs once per outer row).
	Calls int64 `json:"calls,omitempty"`
	// RowsIn / RowsOut accumulate rows entering and leaving the node
	// across all invocations.
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	// TimeNs is the cumulative wall time spent in the node, children
	// included, downstream operators excluded.
	TimeNs   int64          `json:"timeNs"`
	Children []*ExplainNode `json:"children,omitempty"`
}

// ExplainStage is one top-level execution stage.
type ExplainStage struct {
	Name    string `json:"name"`
	RowsIn  int64  `json:"rowsIn"`
	RowsOut int64  `json:"rowsOut"`
	TimeNs  int64  `json:"timeNs"`
}

// Explain is the per-query profile returned instead of rows.
type Explain struct {
	// Engine is the engine that executed the query: always id-space.
	Engine string `json:"engine"`
	// Form is the query form: SELECT, ASK, or CONSTRUCT.
	Form string `json:"form"`
	// Vars is the projected variable list (SELECT only).
	Vars []string `json:"vars,omitempty"`
	// Rows is the number of rows the query produced (1/0 for ASK,
	// triple count for CONSTRUCT).
	Rows int `json:"rows"`
	// PlanningNs is the time spent compiling the plan.
	PlanningNs int64 `json:"planningNs"`
	// ExecNs is the total execution time, planning included.
	ExecNs int64 `json:"execNs"`
	// Plan is the compiled pattern tree with per-node profile.
	Plan *ExplainNode `json:"plan,omitempty"`
	// Stages are the top-level execution stages in run order; the last
	// stage's rowsOut equals Rows for SELECT queries.
	Stages []ExplainStage `json:"stages,omitempty"`
}

// profiler accumulates the per-node and per-stage profile during one
// profiled execution. A nil *profiler disables every hook.
type profiler struct {
	nodes  map[any]*ExplainNode // cnode, *cpattern or a group's first *cfilter → its annotation
	stages []*ExplainStage
	plan   *ExplainNode
	t0     time.Time // start/lap stamp of the row in the sink
}

// noopEnd is the shared closer handed out when profiling is off, so the
// unprofiled path allocates nothing.
var noopEnd = func(int64) {}

// observe accounts one operator invocation on the push path: one row in,
// one row out per row handed to yield, and a clock that stops while
// yield — everything downstream — runs.
func observe(in, out, ns *int64, run func(streamYield) bool, yield streamYield) bool {
	*in++
	t0 := time.Now()
	ok := run(func(r []store.ID, free int) bool {
		*out++
		*ns += time.Since(t0).Nanoseconds()
		ok := yield(r, free)
		t0 = time.Now()
		return ok
	})
	*ns += time.Since(t0).Nanoseconds()
	return ok
}

// node observes one invocation of the plan node registered under key.
func (p *profiler) node(key any, run func(streamYield) bool, yield streamYield) bool {
	en := p.nodes[key]
	en.Calls++
	return observe(&en.RowsIn, &en.RowsOut, &en.TimeNs, run, yield)
}

// addStage appends a stage the sink will account row by row. Safe on a
// nil profiler.
func (p *profiler) addStage(name string) *ExplainStage {
	if p == nil {
		return nil
	}
	st := &ExplainStage{Name: name}
	p.stages = append(p.stages, st)
	return st
}

// start and lap time the stages one row passes through inside a sink:
// start stamps the row's arrival, each lap charges the time since the
// previous stamp to st, counts the row in and — when it passed — out.
// Both are leaf calls and free on a nil profiler.
func (p *profiler) start() {
	if p != nil {
		p.t0 = time.Now()
	}
}

func (p *profiler) lap(st *ExplainStage, passed bool) {
	if p == nil {
		return
	}
	now := time.Now()
	st.TimeNs += now.Sub(p.t0).Nanoseconds()
	p.t0 = now
	st.RowsIn++
	if passed {
		st.RowsOut++
	}
}

// resume reopens the stage of a blocking sink, which has been collecting
// row by row, so its finisher lands on the same clock; the returned func
// closes it with the finisher's output count.
func (p *profiler) resume(st *ExplainStage) func(out int64) {
	if p == nil {
		return noopEnd
	}
	t0 := time.Now()
	return func(out int64) {
		st.RowsOut = out
		st.TimeNs += time.Since(t0).Nanoseconds()
	}
}

// stage opens a timed batch stage over a finished set; the returned func
// closes it. Safe (and free) on a nil profiler.
func (p *profiler) stage(name string, in int64) func(out int64) {
	if p == nil {
		return noopEnd
	}
	t0 := time.Now()
	return func(out int64) {
		p.stages = append(p.stages, &ExplainStage{
			Name: name, RowsIn: in, RowsOut: out,
			TimeNs: time.Since(t0).Nanoseconds(),
		})
	}
}

// build constructs the annotated plan tree mirroring the compiled
// algebra and indexes every node for the execution hooks.
func (p *profiler) build(root *cgroup, ex *idExec) {
	p.plan = p.buildGroup(root, ex)
}

func (p *profiler) buildGroup(g *cgroup, ex *idExec) *ExplainNode {
	en := &ExplainNode{Kind: "group"}
	p.nodes[g] = en
	for _, el := range g.elems {
		en.Children = append(en.Children, p.buildNode(el, ex))
	}
	if len(g.filters) > 0 {
		fn := &ExplainNode{Kind: "filter", Detail: fmt.Sprintf("%d condition(s)", len(g.filters))}
		p.nodes[&g.filters[0]] = fn
		en.Children = append(en.Children, fn)
	}
	return en
}

func (p *profiler) buildNode(n cnode, ex *idExec) *ExplainNode {
	switch x := n.(type) {
	case *cBGP:
		en := &ExplainNode{Kind: "bgp"}
		p.nodes[x] = en
		for i := range x.pats {
			pat := &x.pats[i]
			pn := &ExplainNode{Kind: "pattern", Detail: renderPattern(pat, ex)}
			p.nodes[pat] = pn
			en.Children = append(en.Children, pn)
		}
		return en
	case *cgroup:
		return p.buildGroup(x, ex)
	case *cOptional:
		en := &ExplainNode{Kind: "optional"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.inner, ex))
		return en
	case *cUnion:
		en := &ExplainNode{Kind: "union"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.left, ex), p.buildGroup(x.right, ex))
		return en
	case *cMinus:
		en := &ExplainNode{Kind: "minus"}
		p.nodes[x] = en
		en.Children = append(en.Children, p.buildGroup(x.inner, ex))
		return en
	case *cBind:
		en := &ExplainNode{Kind: "bind", Detail: "?" + slotName(ex, x.slot)}
		p.nodes[x] = en
		return en
	case *cValues:
		en := &ExplainNode{Kind: "values", Detail: fmt.Sprintf("%d row(s)", len(x.rows))}
		p.nodes[x] = en
		return en
	}
	return &ExplainNode{Kind: "unknown"}
}

func slotName(ex *idExec, slot int) string {
	if slot >= 0 && slot < len(ex.names) {
		return ex.names[slot]
	}
	return fmt.Sprintf("slot%d", slot)
}

func renderPattern(p *cpattern, ex *idExec) string {
	var sb strings.Builder
	pos := func(t cterm) {
		if t.isVar() {
			sb.WriteByte('?')
			sb.WriteString(slotName(ex, t.slot))
			return
		}
		sb.WriteString(ex.term(t.id).String())
	}
	pos(p.s)
	sb.WriteByte(' ')
	pos(p.p)
	sb.WriteByte(' ')
	pos(p.o)
	return sb.String()
}

// Explain executes the query against st with profiling and returns the
// annotated plan instead of rows.
func (q *Query) Explain(st store.Queryable) (*Explain, error) {
	t0 := time.Now()
	p, err := q.compile(st)
	if err != nil {
		return nil, err
	}
	prof := &profiler{nodes: make(map[any]*ExplainNode)}
	out := &Explain{Engine: "id-space", Form: q.Form.String(), Vars: p.vars, PlanningNs: time.Since(t0).Nanoseconds()}
	prof.build(p.root, p.ex)
	err = p.run(context.Background(), nil, prof, func([]rdf.Term) bool {
		out.Rows++
		return true
	})
	if err != nil {
		return nil, err
	}
	switch {
	case p.boolean:
		out.Rows = 1
	case p.graph != nil:
		out.Rows = p.graph.Len()
	}
	out.ExecNs = time.Since(t0).Nanoseconds()
	out.Plan = prof.plan
	for _, st := range prof.stages {
		out.Stages = append(out.Stages, *st)
	}
	return out, nil
}

// String returns the SPARQL keyword of the query form.
func (f Form) String() string {
	switch f {
	case FormAsk:
		return "ASK"
	case FormConstruct:
		return "CONSTRUCT"
	default:
		return "SELECT"
	}
}
