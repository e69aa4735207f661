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
// are plain variables read their slot of the ID row; anything richer runs
// its slot program and the value is interned. When the pattern is
// exhausted each group writes its finished aggregates into the hidden
// slots of an ID row beside its key variables, evaluates HAVING and the
// projection expressions on that row once, and emits an ID row of the
// projected variables into the same ORDER BY / DISTINCT / window / project
// tail every other blocking sink ends in.

import (
	"slices"
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
// runs val, which reads slots. Group keys, aggregate arguments and every
// (expr AS ?v) projection, grouped or not, are slotExprs.
type slotExpr struct {
	slot  int
	val   valProg // nil for a plain variable
	slots []int
}

func (c *compiler) slotExpr(e Expression) slotExpr {
	if v, ok := e.(*ExprVar); ok {
		return slotExpr{slot: c.slots.lookup(v.Name)}
	}
	return slotExpr{slot: -1, val: c.expr().val(e), slots: c.exprVars(e)}
}

// id returns the expression's value on row r as an ID; NoID for an
// unbound variable or an expression error. Small enough to inline: a
// plain variable — every key and argument of the grouped queries the
// product issues — costs an index, not a call.
func (e *slotExpr) id(ex *idExec, r []store.ID) store.ID {
	if e.val != nil {
		return e.eval(ex, r)
	}
	if e.slot < 0 {
		return store.NoID
	}
	return r[e.slot]
}

// markReads sets reads[s] for every slot the expression reads.
func (e *slotExpr) markReads(reads []bool) {
	if e.val == nil {
		if e.slot >= 0 {
			reads[e.slot] = true
		}
		return
	}
	for _, sl := range e.slots {
		reads[sl] = true
	}
}

func (e *slotExpr) eval(ex *idExec, r []store.ID) store.ID {
	t, err := e.val(ex.at(r))
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
		g.having = append(g.having, c.filter(h))
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
	if s.arg.val == nil {
		for _, o := range g.aggs {
			if o.arg.val == nil && o.fn == s.fn && o.distinct == s.distinct && o.star == s.star && o.arg.slot == s.arg.slot && o.sep == s.sep {
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
	perRow bool // an aggregate other than a plain count: a run's rows are folded one by one

	memo       *leafMemo // the last leaf addLeaf folded
	leafGroups []int     // its keys' groups
}

// plainCount reports whether the aggregate is COUNT(*) or COUNT(?x)
// without DISTINCT: a count of rows, which a run adds in one step.
func (s *aggSpec) plainCount() bool {
	return s.fn == aggCount && !s.distinct && s.arg.val == nil
}

func newStreamAgg(ex *idExec, spec *groupSpec) *streamAgg {
	a := &streamAgg{ex: ex, spec: spec, groups: idTable{width: len(spec.keys)}, keyBuf: make([]store.ID, len(spec.keys))}
	for i := range spec.aggs {
		a.perRow = a.perRow || !spec.aggs[i].plainCount()
	}
	if len(spec.keys) == 0 {
		// a grouped query without GROUP BY has exactly one group, present
		// even over zero rows (COUNT(*) = 0)
		a.groups.add(nil)
		a.order = []aggGroup{{accs: make([]aggAcc, len(spec.aggs))}}
	}
	return a
}

// group returns (creating on first sight) the index of the group of row
// r, keyed on the tuple of key IDs; an unbound or erroring key is NoID, a
// key of its own.
func (a *streamAgg) group(r []store.ID) int {
	for i := range a.spec.keys {
		a.keyBuf[i] = a.spec.keys[i].id(a.ex, r)
	}
	i, added := a.groups.add(a.keyBuf)
	if added {
		a.order = append(a.order, aggGroup{accs: make([]aggAcc, len(a.spec.aggs))})
	}
	if g := &a.order[i]; g.rep == nil {
		g.rep = append([]store.ID(nil), r...)
	}
	return i
}

// add folds one pipeline row into its group's accumulators.
func (a *streamAgg) add(r []store.ID) { a.fold(&a.order[a.group(r)], r, 1) }

// addRun folds a run — r with slot set to each of ids in turn, r holding
// the first — into one group: no key reads slot, so the run costs one
// lookup, and its first row is the group's first row if the group is
// new. A plain count adds the run's length; every other aggregate folds
// the rows in order.
func (a *streamAgg) addRun(r []store.ID, slot int, ids []store.ID) {
	g := &a.order[a.group(r)]
	a.fold(g, r, int64(len(ids)))
	if a.perRow {
		for _, id := range ids[1:] {
			r[slot] = id
			a.fold(g, r, 0)
		}
	}
}

// addLeaf folds a leaf — one run per key, over a varying slot no key
// reads — into its groups, with plain counts only (!perRow): each key's
// group gains its list's length, looked up with the key and the first ID
// of its list in r, so a new group's first row is the run's. A leaf
// whose key slot no key reads is one group, looked up once; one that
// matches the last leaf folded (leafMemo) falls into that one's groups
// key by key, and looks none up.
func (a *streamAgg) addLeaf(r []store.ID, rn idRun) {
	if !slices.Contains(a.memo.slots, rn.leaf.key) {
		a.fold(&a.order[a.group(r)], r, int64(len(rn.ids)))
		return
	}
	hit := a.memo.holds(r, rn)
	if !hit {
		a.leafGroups = a.leafGroups[:0]
	}
	i := 0
	rn.split(r, func(run idRun) bool {
		if !hit {
			a.leafGroups = append(a.leafGroups, a.group(r))
		}
		a.fold(&a.order[a.leafGroups[i]], r, int64(len(run.ids)))
		i++
		return true
	})
	if !hit {
		a.memo.keep(r, rn)
	}
}

// fold folds row r into g's accumulators. n is how many rows r stands for
// in a plain count: 1 for a single row, a run's length for its first row
// and 0 for the rest, which only the other aggregates read. COUNT(?x)
// may count the whole run off its first row because a run binds ?x on
// every row or on none: ?x is either the run's own variable, bound
// throughout, or one all its rows share. One loop, no call per
// aggregate: at ~20 ns a row for the whole pipeline, a call is what a
// COUNT costs.
func (a *streamAgg) fold(g *aggGroup, r []store.ID, n int64) {
	for i := range a.spec.aggs {
		s, acc := &a.spec.aggs[i], &g.accs[i]
		if s.plainCount() {
			if n > 0 && (s.star || s.arg.id(a.ex, r) != store.NoID) {
				acc.n += n
			}
			continue
		}
		if s.star {
			// COUNT(DISTINCT *): slot order is fixed per plan, so equal
			// rows are equal solutions
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
			if k := &spec.keys[i]; k.val == nil && k.slot >= 0 {
				env[k.slot] = g.rep[k.slot]
			}
		}
		for i := range spec.aggs {
			env[spec.aggs[i].slot] = a.result(&spec.aggs[i], &g.accs[i])
		}
		for _, h := range spec.having {
			if ok, err := h.test(ex.at(env)); err != nil || !ok {
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
