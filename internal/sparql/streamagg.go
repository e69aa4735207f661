package sparql

// The grouped sink: streaming hash aggregation for every GROUP BY /
// HAVING / aggregate shape. Exploration leans on grouped queries with low
// group cardinality over large solution sets (class histograms, top
// predicates — H-BOLD's index extraction is a stream of them), so the
// sink holds one accumulator per (group, aggregate) while rows stream
// past: live state is O(groups), never O(rows), and no solution row is
// ever materialized as a Binding.
//
// At compile time every aggregate of SELECT and HAVING is lifted out of
// its expression into one aggSpec with a hidden slot; the expression keeps
// a variable reference in its place. Keys and aggregate arguments that
// are plain variables read their slot of the ID row; anything richer is
// evaluated through the scratch Binding and interned. When the pattern is
// exhausted each group writes its finished aggregates into the hidden
// slots of an ID row beside its key variables, evaluates HAVING and the
// projection expressions on that row once, and emits an ID row of the
// projected variables into the same ORDER BY / DISTINCT / window / project
// tail every other blocking sink ends in.

import (
	"strconv"

	"repro/internal/rdf"
	"repro/internal/store"
)

type aggFn uint8

const (
	aggCount aggFn = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggSample
	aggConcat
)

var aggFns = map[string]aggFn{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
	"SAMPLE": aggSample, "GROUP_CONCAT": aggConcat,
}

// slotExpr is an expression compiled to where its value comes from: a
// plain variable reads slot (-1: a variable nothing binds), anything else
// evaluates expr over vars. Group keys, aggregate arguments and every
// (expr AS ?v) projection, grouped or not, are slotExprs.
type slotExpr struct {
	slot int
	expr Expression // nil for a plain variable
	vars []varslot
}

func (c *compiler) slotExpr(e Expression) slotExpr {
	if v, ok := e.(*ExprVar); ok {
		return slotExpr{slot: c.slots.lookup(v.Name)}
	}
	return slotExpr{slot: -1, expr: e, vars: c.exprVars(e)}
}

// id returns the expression's value on row r as an ID; NoID for an
// unbound variable or an expression error. Small enough to inline: a
// plain variable — every key and argument of the grouped queries the
// product issues — costs an index, not a call.
func (e *slotExpr) id(ex *idExec, r []store.ID) store.ID {
	if e.expr != nil {
		return e.eval(ex, r)
	}
	if e.slot < 0 {
		return store.NoID
	}
	return r[e.slot]
}

func (e *slotExpr) eval(ex *idExec, r []store.ID) store.ID {
	t, err := EvalExpr(e.expr, ex.bindScratch(e.vars, r))
	if err != nil {
		return store.NoID
	}
	return ex.intern(t)
}

// aggSpec is one aggregate of the query: what it folds and the hidden
// slot its finished value is written to.
type aggSpec struct {
	fn       aggFn
	distinct bool
	star     bool     // COUNT(*)
	arg      slotExpr // unused under star
	sep      string   // GROUP_CONCAT
	slot     int
}

// groupProj is one SELECT item of a grouped query, emitted to slot out
// (-1: a variable nothing binds). A plain variable is read off the
// group's first row — a key reads its own value, any other variable is
// sampled; an expression, its aggregates lifted, is evaluated over the
// group's keys and finished aggregates.
type groupProj struct {
	val   slotExpr
	plain bool
	out   int
}

// groupSpec is the compiled grouping surface of a query.
type groupSpec struct {
	keys   []slotExpr
	aggs   []aggSpec
	having []cfilter // aggregates lifted
	projs  []groupProj
}

// grouping compiles the query's GROUP BY keys, HAVING conditions and
// projections. The parser has refused a projection expression without AS
// and SELECT * beside grouping, so there is no shape to decline.
func (c *compiler) grouping(q *Query) *groupSpec {
	g := &groupSpec{}
	for _, k := range q.GroupBy {
		g.keys = append(g.keys, c.slotExpr(k))
	}
	for _, h := range q.Having {
		h = c.liftAggregates(h, g)
		g.having = append(g.having, cfilter{expr: h, vars: c.exprVars(h)})
	}
	for _, it := range q.Select {
		if it.Expr == nil {
			g.projs = append(g.projs, groupProj{plain: true, out: c.slots.lookup(it.Var)})
			continue
		}
		g.projs = append(g.projs, groupProj{val: c.slotExpr(c.liftAggregates(it.Expr, g)), out: c.slots.slot(it.Var)})
	}
	return g
}

// liftAggregates returns e with every aggregate replaced by a reference
// to the hidden variable its finished value is bound to. An aggregate
// nested in another's argument stays: evaluated per row it is an error,
// like anywhere else outside a group. So does BOUND's argument, which
// must stay a variable of the query's.
func (c *compiler) liftAggregates(e Expression, g *groupSpec) Expression {
	switch x := e.(type) {
	case *ExprAggregate:
		return &ExprVar{Name: c.slots.names[c.accumulator(x, g)]}
	case *ExprBinary:
		return &ExprBinary{Op: x.Op, L: c.liftAggregates(x.L, g), R: c.liftAggregates(x.R, g)}
	case *ExprUnary:
		return &ExprUnary{Op: x.Op, X: c.liftAggregates(x.X, g)}
	case *ExprCall:
		if x.Fn == "BOUND" {
			return x
		}
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.liftAggregates(a, g)
		}
		return &ExprCall{Fn: x.Fn, Args: args}
	}
	return e
}

// accumulator returns the hidden slot of x's accumulator ('#' cannot occur
// in a query's own variable names), sharing one between equal aggregates
// over a plain variable: HAVING usually repeats a projected one.
func (c *compiler) accumulator(x *ExprAggregate, g *groupSpec) int {
	s := aggSpec{fn: aggFns[x.Fn], distinct: x.Distinct, star: x.Arg == nil, sep: x.Separator}
	if !s.star {
		s.arg = c.slotExpr(x.Arg)
	}
	if s.arg.expr == nil {
		for _, o := range g.aggs {
			if o.arg.expr == nil && o.fn == s.fn && o.distinct == s.distinct && o.star == s.star && o.arg.slot == s.arg.slot && o.sep == s.sep {
				return o.slot
			}
		}
	}
	s.slot = c.slots.slot("#agg" + strconv.Itoa(len(g.aggs)))
	g.aggs = append(g.aggs, s)
	return s.slot
}

// aggAcc is one aggregate's accumulator within one group.
type aggAcc struct {
	n      int64 // values folded: COUNT's result, AVG's denominator
	sum    float64
	numErr bool     // a non-numeric value poisons SUM/AVG: the binding is omitted
	best   store.ID // MIN/MAX so far, SAMPLE's first value
	concat []byte   // GROUP_CONCAT
	seen   *idTable // DISTINCT values; COUNT(DISTINCT *)'s rows
}

// aggGroup is one group's state: its first row (key variables and sampled
// non-key ones read it) and one accumulator per aggregate.
type aggGroup struct {
	rep  []store.ID
	accs []aggAcc
}

// streamAgg folds streamed ID-space rows into per-group accumulators.
type streamAgg struct {
	ex     *idExec
	spec   *groupSpec
	groups idTable    // key tuples; a group's index is its place in order
	order  []aggGroup // first-appearance order
	keyBuf []store.ID
}

func newStreamAgg(ex *idExec, spec *groupSpec) *streamAgg {
	a := &streamAgg{ex: ex, spec: spec, groups: idTable{width: len(spec.keys)}, keyBuf: make([]store.ID, len(spec.keys))}
	if len(spec.keys) == 0 {
		// a grouped query without GROUP BY has exactly one group, present
		// even over zero rows (COUNT(*) = 0)
		a.groups.add(nil)
		a.order = []aggGroup{{accs: make([]aggAcc, len(spec.aggs))}}
	}
	return a
}

// group returns (creating on first sight) the group of row r, keyed on
// the tuple of key IDs; an unbound or erroring key is NoID, a key of its
// own.
func (a *streamAgg) group(r []store.ID) *aggGroup {
	for i := range a.spec.keys {
		a.keyBuf[i] = a.spec.keys[i].id(a.ex, r)
	}
	i, added := a.groups.add(a.keyBuf)
	if added {
		a.order = append(a.order, aggGroup{accs: make([]aggAcc, len(a.spec.aggs))})
	}
	g := &a.order[i]
	if g.rep == nil {
		g.rep = append([]store.ID(nil), r...)
	}
	return g
}

// add folds one pipeline row into its group's accumulators. One loop, no
// call per aggregate: at ~20 ns a row for the whole pipeline, a call is
// what a COUNT costs.
func (a *streamAgg) add(r []store.ID) {
	g := a.group(r)
	for i := range a.spec.aggs {
		s, acc := &a.spec.aggs[i], &g.accs[i]
		if s.star {
			if !s.distinct {
				acc.n++
				continue
			}
			// slot order is fixed per plan, so equal rows are equal
			// solutions
			if acc.seen == nil {
				acc.seen = &idTable{width: len(r)}
			}
			acc.seen.add(r)
			continue
		}
		id := s.arg.id(a.ex, r)
		if id == store.NoID {
			continue // unbound or erroring argument: the row contributes nothing
		}
		if s.distinct {
			if acc.seen == nil {
				acc.seen = &idTable{width: 1}
			}
			if _, added := acc.seen.add([]store.ID{id}); !added {
				continue
			}
		}
		switch s.fn {
		case aggSum, aggAvg:
			if acc.numErr {
				continue
			}
			f, ok := a.ex.term(id).Float()
			if !ok {
				acc.numErr = true
				continue
			}
			acc.sum += f
		case aggMin, aggMax:
			if acc.n > 0 {
				t, best := a.ex.term(id), a.ex.term(acc.best)
				c, err := TermOrder(t, best)
				if err != nil {
					c = t.Compare(best)
				}
				if (s.fn == aggMin && c >= 0) || (s.fn == aggMax && c <= 0) {
					break
				}
			}
			acc.best = id
		case aggSample:
			if acc.n == 0 {
				acc.best = id
			}
		case aggConcat:
			if acc.n > 0 {
				acc.concat = append(acc.concat, s.sep...)
			}
			acc.concat = append(acc.concat, a.ex.term(id).Value...)
		}
		acc.n++
	}
}

// result is the accumulator's finished value as an ID; NoID is the
// aggregate's error (MIN of nothing, SUM over a non-number), which leaves
// whatever it feeds unbound.
func (a *streamAgg) result(s *aggSpec, acc *aggAcc) store.ID {
	var t rdf.Term
	switch s.fn {
	case aggCount:
		n := acc.n
		if acc.seen != nil { // DISTINCT: the table's size (COUNT(DISTINCT *) bumps no n)
			n = int64(acc.seen.n)
		}
		t = rdf.NewInteger(n)
	case aggSum, aggAvg:
		if acc.numErr {
			return store.NoID
		}
		v := acc.sum // an empty group sums, and averages, to 0
		if s.fn == aggAvg && acc.n > 0 {
			v /= float64(acc.n)
		}
		t = formatFloat(v)
	case aggMin, aggMax, aggSample:
		return acc.best // NoID over an empty group
	case aggConcat:
		t = rdf.NewLiteral(string(acc.concat))
	}
	return a.ex.intern(t)
}

// emit appends one ID row per group that passes HAVING to buf, in
// first-appearance order. Conditions and projection expressions see the
// group's key variables and finished aggregates and nothing else; the
// emitted row carries the projected variables only, which is what ORDER
// BY on a grouped query may refer to.
func (a *streamAgg) emit(buf *rowbuf) {
	ex, spec := a.ex, a.spec
	env, out := make([]store.ID, ex.nslots), make([]store.ID, ex.nslots)
groups:
	for _, g := range a.order {
		clear(env)
		for i := range spec.keys {
			if k := &spec.keys[i]; k.expr == nil && k.slot >= 0 {
				env[k.slot] = g.rep[k.slot]
			}
		}
		for i := range spec.aggs {
			env[spec.aggs[i].slot] = a.result(&spec.aggs[i], &g.accs[i])
		}
		for _, h := range spec.having {
			if ok, err := evalBool(h.expr, ex.bindScratch(h.vars, env)); err != nil || !ok {
				continue groups
			}
		}
		clear(out)
		for i := range spec.projs {
			p := &spec.projs[i]
			switch {
			case p.out < 0:
			case p.plain:
				if g.rep != nil { // nil: the implicit group of zero solutions
					out[p.out] = g.rep[p.out]
				}
			default:
				out[p.out] = p.val.id(ex, env)
			}
		}
		buf.add(out)
	}
}
