// Package reference is the term-space reference evaluator: the pattern
// algebra joined over map-based Bindings, straight from the parsed AST
// with no plan, no slots and no ID space, then grouping, ordering and
// deduplication over the materialized solutions. It shares the parser and
// the expression language with internal/sparql (of ORDER BY, the key
// comparison the federated merge also uses) and nothing of the execution —
// no join, sink, grouping, aggregation or deduplication code — which is
// what makes it the oracle the differential and conformance suites compare
// the executor against. Only _test.go files and internal/testsuite import it
// (CI checks that no binary does); internal/sparql cannot import it back.
package reference

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Exec executes the query on the reference evaluator. It materializes
// every intermediate solution set and ignores contexts.
func Exec(q *sparql.Query, st store.Queryable) (*sparql.Result, error) {
	ev := &evaluator{st: st}
	sols := ev.evalGroup(q.Where, []sparql.Binding{{}})

	if q.Form == sparql.FormAsk {
		return &sparql.Result{Ask: true, Boolean: len(sols) > 0}, nil
	}
	if q.Form == sparql.FormConstruct {
		// solution modifiers apply to the solution sequence before
		// templating
		var vars []string
		for _, tp := range q.Template {
			vars = append(vars, tp.Vars()...)
		}
		rows := sparql.ResultSeq(&sparql.Result{Vars: vars, Rows: window(sols, q.Offset, q.Limit)})
		return &sparql.Result{Graph: q.Construct(vars, rows.Terms())}, nil
	}

	vars := q.Vars()
	var rows []sparql.Binding
	if q.NeedsGrouping() {
		rows = aggregate(q, sols)
		// In the grouped path ORDER BY references group keys or aggregate
		// aliases, both present in the produced rows.
		if len(q.OrderBy) > 0 {
			sortSolutions(rows, q.OrderBy)
		}
	} else {
		// ORDER BY is evaluated over the full solution bindings (it may
		// reference unprojected variables), so extend each solution with
		// the projection aliases, sort, then restrict.
		extended := sols
		if len(q.OrderBy) > 0 || hasAliases(q.Select) {
			extended = make([]sparql.Binding, len(sols))
			for i, s := range sols {
				ns := clone(s)
				for _, it := range q.Select {
					if it.Expr == nil {
						continue
					}
					if t, err := sparql.EvalExpr(it.Expr, s); err == nil {
						ns[it.Var] = t
					}
				}
				extended[i] = ns
			}
			if len(q.OrderBy) > 0 {
				sortSolutions(extended, q.OrderBy)
			}
		}
		rows = project(q, vars, extended)
	}
	if q.Distinct || q.Reduced {
		rows = distinct(rows, vars)
	}
	return &sparql.Result{Vars: vars, Rows: window(rows, q.Offset, q.Limit)}, nil
}

// window applies OFFSET / LIMIT.
func window(rows []sparql.Binding, offset, limit int) []sparql.Binding {
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// holds reports whether the condition is true on b; an error is false.
func holds(e sparql.Expression, b sparql.Binding) bool {
	t, err := sparql.EvalExpr(e, b)
	if err != nil {
		return false
	}
	v, err := sparql.EffectiveBool(t)
	return err == nil && v
}

func clone(b sparql.Binding) sparql.Binding {
	out := make(sparql.Binding, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

func hasAliases(items []sparql.SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil {
			return true
		}
	}
	return false
}

// project applies the SELECT clause to solutions whose expression
// aliases have already been materialized into the bindings.
func project(q *sparql.Query, vars []string, sols []sparql.Binding) []sparql.Binding {
	if q.Star {
		return sols
	}
	rows := make([]sparql.Binding, 0, len(sols))
	for _, s := range sols {
		out := sparql.Binding{}
		for _, v := range vars {
			if t, ok := s[v]; ok {
				out[v] = t
			}
		}
		rows = append(rows, out)
	}
	return rows
}

// aggregate applies GROUP BY / HAVING and aggregate projections: the
// solutions are partitioned into materialized groups, and each group's
// conditions and projections are evaluated over its whole row set.
func aggregate(q *sparql.Query, sols []sparql.Binding) []sparql.Binding {
	type group struct {
		base sparql.Binding // group-key bindings
		rows []sparql.Binding
	}
	groups := map[string]*group{}
	var order []*group

	keyOf := func(s sparql.Binding) (string, sparql.Binding) {
		var sb strings.Builder
		base := sparql.Binding{}
		for _, ge := range q.GroupBy {
			t, err := sparql.EvalExpr(ge, s)
			if err != nil {
				sb.WriteString("\x00!")
				continue
			}
			sb.WriteString(t.String())
			sb.WriteByte('\x00')
			if v, ok := ge.(*sparql.ExprVar); ok {
				base[v.Name] = t
			}
		}
		return sb.String(), base
	}
	if len(q.GroupBy) == 0 {
		// one group, present even over zero solutions (COUNT(*) = 0)
		order = append(order, &group{base: sparql.Binding{}, rows: sols})
	} else {
		for _, s := range sols {
			k, base := keyOf(s)
			g, ok := groups[k]
			if !ok {
				g = &group{base: base}
				groups[k] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, s)
		}
	}

	var rows []sparql.Binding
	for _, g := range order {
		keep := true
		for _, h := range q.Having {
			if !holds(substAggregates(h, g.rows), g.base) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		out := sparql.Binding{}
		for _, it := range q.Select {
			if it.Expr == nil {
				if t, ok := g.base[it.Var]; ok {
					out[it.Var] = t
				} else if len(g.rows) > 0 {
					// plain var projected under GROUP BY must be a group key;
					// tolerate by sampling (useful for functional data)
					if t, ok := g.rows[0][it.Var]; ok {
						out[it.Var] = t
					}
				}
				continue
			}
			if t, err := sparql.EvalExpr(substAggregates(it.Expr, g.rows), g.base); err == nil {
				out[it.Var] = t
			}
		}
		rows = append(rows, out)
	}
	return rows
}

// substAggregates returns e with every aggregate replaced by its value
// over the rows of one group, so the rest of the expression evaluates
// with the ordinary rules (an error under || or COALESCE included). An
// aggregate that errors stays in place: evaluating the node is an error.
func substAggregates(e sparql.Expression, rows []sparql.Binding) sparql.Expression {
	switch x := e.(type) {
	case *sparql.ExprAggregate:
		if t, err := evalAggregate(x, rows); err == nil {
			return &sparql.ExprTerm{Term: t}
		}
	case *sparql.ExprBinary:
		return &sparql.ExprBinary{Op: x.Op, L: substAggregates(x.L, rows), R: substAggregates(x.R, rows)}
	case *sparql.ExprUnary:
		return &sparql.ExprUnary{Op: x.Op, X: substAggregates(x.X, rows)}
	case *sparql.ExprCall:
		args := make([]sparql.Expression, len(x.Args))
		for i, a := range x.Args {
			args[i] = substAggregates(a, rows)
		}
		return &sparql.ExprCall{Fn: x.Fn, Args: args}
	}
	return e
}

var errAggregate = errors.New("sparql: aggregate error")

func evalAggregate(x *sparql.ExprAggregate, rows []sparql.Binding) (rdf.Term, error) {
	// collect argument values
	var vals []rdf.Term
	if x.Arg == nil { // COUNT(*)
		if x.Distinct {
			seen := map[string]bool{}
			for _, r := range rows {
				seen[sparql.BindingKey(r, nil)] = true
			}
			return rdf.NewInteger(int64(len(seen))), nil
		}
		return rdf.NewInteger(int64(len(rows))), nil
	}
	for _, r := range rows {
		if t, err := sparql.EvalExpr(x.Arg, r); err == nil {
			vals = append(vals, t)
		}
	}
	if x.Distinct {
		seen := map[rdf.Term]bool{}
		var d []rdf.Term
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				d = append(d, v)
			}
		}
		vals = d
	}
	switch x.Fn {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM", "AVG":
		if x.Fn == "AVG" && len(vals) == 0 {
			return rdf.NewInteger(0), nil
		}
		sum := 0.0
		for _, v := range vals {
			f, ok := v.Float()
			if !ok {
				return rdf.Term{}, errAggregate // over a non-number
			}
			sum += f
		}
		if x.Fn == "AVG" {
			sum /= float64(len(vals))
		}
		return formatFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, errAggregate // of an empty group
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := sparql.TermOrder(v, best)
			if err != nil {
				c = v.Compare(best)
			}
			if (x.Fn == "MIN" && c < 0) || (x.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SAMPLE":
		if len(vals) == 0 {
			return rdf.Term{}, errAggregate // of an empty group
		}
		return vals[0], nil
	case "GROUP_CONCAT":
		parts := make([]string, 0, len(vals))
		for _, v := range vals {
			parts = append(parts, v.Value)
		}
		return rdf.NewLiteral(strings.Join(parts, x.Separator)), nil
	}
	return rdf.Term{}, errAggregate
}

// formatFloat renders an aggregate numeric result: integer when integral.
func formatFloat(f float64) rdf.Term {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return rdf.NewInteger(int64(f))
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'f', -1, 64), rdf.XSDDecimal)
}

// --- pattern evaluation ---

type evaluator struct {
	st store.Queryable
}

func (ev *evaluator) evalGroup(g *sparql.GroupPattern, input []sparql.Binding) []sparql.Binding {
	sols := input
	for _, el := range g.Elems {
		sols = ev.evalPattern(el, sols)
		if len(sols) == 0 {
			// Filters can't resurrect solutions; bail early unless a later
			// element is a UNION/VALUES that could still produce rows from
			// the empty set — it can't, since joins with zero rows are zero.
			break
		}
	}
	if len(g.Filters) > 0 {
		kept := sols[:0:0]
		for _, s := range sols {
			ok := true
			for _, f := range g.Filters {
				if !holds(f, s) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, s)
			}
		}
		sols = kept
	}
	return sols
}

func (ev *evaluator) evalPattern(p sparql.GraphPattern, input []sparql.Binding) []sparql.Binding {
	switch x := p.(type) {
	case *sparql.BGP:
		return ev.evalBGP(x, input)
	case *sparql.GroupPattern:
		return ev.evalGroup(x, input)
	case *sparql.OptionalPattern:
		var out []sparql.Binding
		for _, left := range input {
			ext := ev.evalGroup(x.Inner, []sparql.Binding{left})
			if len(ext) == 0 {
				out = append(out, left)
			} else {
				out = append(out, ext...)
			}
		}
		return out
	case *sparql.UnionPattern:
		l := ev.evalGroup(x.Left, input)
		r := ev.evalGroup(x.Right, input)
		return append(l, r...)
	case *sparql.MinusPattern:
		right := ev.evalGroup(x.Inner, []sparql.Binding{{}})
		var out []sparql.Binding
		for _, left := range input {
			removed := false
			for _, r := range right {
				if compatibleSharing(left, r) {
					removed = true
					break
				}
			}
			if !removed {
				out = append(out, left)
			}
		}
		return out
	case *sparql.BindPattern:
		out := make([]sparql.Binding, 0, len(input))
		for _, s := range input {
			ns := clone(s)
			if t, err := sparql.EvalExpr(x.Expr, s); err == nil {
				ns[x.Var] = t
			}
			out = append(out, ns)
		}
		return out
	case *sparql.ValuesPattern:
		var out []sparql.Binding
		for _, s := range input {
			for _, row := range x.Rows {
				ns := clone(s)
				ok := true
				for i, v := range x.Vars {
					t := row[i]
					if t.IsZero() {
						continue // UNDEF
					}
					if cur, bound := ns[v]; bound {
						if cur != t {
							ok = false
							break
						}
					} else {
						ns[v] = t
					}
				}
				if ok {
					out = append(out, ns)
				}
			}
		}
		return out
	}
	return nil
}

// compatibleSharing reports whether two bindings share at least one
// variable and agree on all shared variables (MINUS semantics).
func compatibleSharing(l, r sparql.Binding) bool {
	shared := false
	for k, v := range r {
		if lv, ok := l[k]; ok {
			shared = true
			if lv != v {
				return false
			}
		}
	}
	return shared
}

// evalBGP joins the triple patterns with greedy selectivity ordering.
func (ev *evaluator) evalBGP(bgp *sparql.BGP, input []sparql.Binding) []sparql.Binding {
	if len(bgp.Patterns) == 0 {
		return input
	}
	sols := input
	remaining := make([]sparql.TriplePattern, len(bgp.Patterns))
	copy(remaining, bgp.Patterns)
	// The estimate depends only on the pattern's constants, so one store
	// call per pattern suffices; re-estimating every remaining pattern on
	// every iteration cost O(k²) Cardinality calls per sparql.BGP.
	cards := make([]int, len(remaining))
	for i, tp := range remaining {
		cards[i] = ev.st.Cardinality(patternFor(tp))
	}
	bound := map[string]bool{}
	if len(input) > 0 {
		for v := range input[0] {
			bound[v] = true
		}
	}
	first := true
	for len(remaining) > 0 {
		// Pick the next pattern greedily: prefer patterns connected to an
		// already-bound variable (joining disconnected patterns builds a
		// cartesian product), then the smallest estimated cardinality.
		best, bestCard, bestConn := -1, int(^uint(0)>>1), false
		for i, tp := range remaining {
			conn := first
			for _, v := range tp.Vars() {
				if bound[v] {
					conn = true
					break
				}
			}
			if best == -1 || (conn && !bestConn) || (conn == bestConn && cards[i] < bestCard) {
				best, bestCard, bestConn = i, cards[i], conn
			}
		}
		first = false
		tp := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		cards = append(cards[:best], cards[best+1:]...)
		sols = ev.joinPattern(tp, sols)
		if len(sols) == 0 {
			return nil
		}
		for _, v := range tp.Vars() {
			bound[v] = true
		}
	}
	return sols
}

// patternFor builds a store pattern for cardinality estimation from the
// pattern's constants (row-bound variables are approximated as free, which
// over-estimates but never changes results).
func patternFor(tp sparql.TriplePattern) store.Pattern {
	var pat store.Pattern
	if !tp.S.IsVar() {
		pat.S = tp.S.Term
	}
	if !tp.P.IsVar() {
		pat.P = tp.P.Term
	}
	if !tp.O.IsVar() {
		pat.O = tp.O.Term
	}
	return pat
}

// joinPattern extends each solution with all matches of tp.
func (ev *evaluator) joinPattern(tp sparql.TriplePattern, sols []sparql.Binding) []sparql.Binding {
	var out []sparql.Binding
	for _, s := range sols {
		pat := store.Pattern{}
		resolve := func(n sparql.NodePattern) (rdf.Term, bool) { // term, isConcrete
			if !n.IsVar() {
				return n.Term, true
			}
			if t, ok := s[n.Var]; ok {
				return t, true
			}
			return rdf.Term{}, false
		}
		if t, ok := resolve(tp.S); ok {
			pat.S = t
		}
		if t, ok := resolve(tp.P); ok {
			pat.P = t
		}
		if t, ok := resolve(tp.O); ok {
			pat.O = t
		}
		ev.st.Match(pat, func(tr rdf.Triple) bool {
			ns := clone(s)
			if unify(tp, tr, ns) {
				out = append(out, ns)
			}
			return true
		})
	}
	return out
}

// unify binds the pattern's variables to the triple's terms, checking
// repeated variables for consistency.
func unify(tp sparql.TriplePattern, tr rdf.Triple, b sparql.Binding) bool {
	bind := func(n sparql.NodePattern, t rdf.Term) bool {
		if !n.IsVar() {
			return n.Term == t
		}
		if cur, ok := b[n.Var]; ok {
			return cur == t
		}
		b[n.Var] = t
		return true
	}
	return bind(tp.S, tr.S) && bind(tp.P, tr.P) && bind(tp.O, tr.O)
}

// --- helpers ---

func sortSolutions(rows []sparql.Binding, conds []sparql.OrderCond) {
	// Precompute the sort keys once per row: evaluating expressions
	// inside the comparator would cost O(n log n) evaluations. The
	// comparison itself is sparql.CompareOrderKeys, shared with the federated
	// ordered merge so both establish the same order.
	type keyed struct {
		row sparql.Binding
		key sparql.OrderKey
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{row: r, key: sparql.OrderKeyOf(conds, r)}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		return sparql.CompareOrderKeys(conds, ks[i].key, ks[j].key) < 0
	})
	for i := range ks {
		rows[i] = ks[i].row
	}
}

func distinct(rows []sparql.Binding, vars []string) []sparql.Binding {
	seen := map[string]bool{}
	out := rows[:0:0]
	for _, r := range rows {
		k := sparql.BindingKey(r, vars)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
