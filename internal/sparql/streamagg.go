package sparql

// Streaming hash aggregation for GROUP BY queries. The grouped shapes
// the exploration workloads lean on — class histograms, top predicates —
// have low group cardinality over large solution sets, so holding one
// accumulator per group while rows stream past turns an O(rows)
// materialization into O(groups) live state. Rows never materialize as
// Bindings: groups are keyed on packed group-slot ID tuples and the
// accumulators fold each row in as the pipeline produces it; the finished
// groups are emitted at stream end through the same ORDER BY / DISTINCT /
// window finishers as the general aggregation (q.aggregate over the
// buffered solution set), so the two cannot produce different answers.
//
// Not every grouped query streams: the operator handles plain-variable
// group keys and direct COUNT/SUM/MIN/MAX/AVG projections (COUNT also
// with DISTINCT), which is exactly the aggregate surface the executor
// and the reference evaluate identically. HAVING, expression keys,
// nested aggregate arithmetic, GROUP_CONCAT and SAMPLE take the general
// aggregation over the buffering sink — SAMPLE and GROUP_CONCAT because
// their result depends on row arrival order.

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// aggKind is what one projection of a streamed grouped query computes.
type aggKind uint8

const (
	aggKey   aggKind = iota // a group-key variable
	aggCount                // COUNT(*) or COUNT(?v), optionally DISTINCT
	aggSum
	aggMin
	aggMax
	aggAvg
)

// aggProj is one compiled projection of a streamed grouped query.
type aggProj struct {
	kind     aggKind
	outVar   string
	argVar   string // aggregate argument variable; "" = COUNT(*)
	distinct bool
	slot     int // resolved at runtime: key slot or argument slot; -1/-2 per lookup
}

// streamAggSpec is the AST-level plan of a streamable grouped query; nil
// means the shape needs the general aggregation.
type streamAggSpec struct {
	groupVars []string
	projs     []aggProj
}

// streamAggSpec analyzes the query's grouping surface. It is purely
// syntactic — slots are resolved later against the compiled plan.
func (q *Query) streamAggSpec() *streamAggSpec {
	if len(q.Having) > 0 || q.Star {
		return nil
	}
	spec := &streamAggSpec{}
	keys := map[string]bool{}
	for _, ge := range q.GroupBy {
		v, ok := ge.(*ExprVar)
		if !ok {
			return nil
		}
		spec.groupVars = append(spec.groupVars, v.Name)
		keys[v.Name] = true
	}
	for _, it := range q.Select {
		if it.Expr == nil {
			if !keys[it.Var] {
				return nil // sampling a non-key variable: general aggregation
			}
			spec.projs = append(spec.projs, aggProj{kind: aggKey, outVar: it.Var, argVar: it.Var})
			continue
		}
		if it.Var == "" {
			return nil // missing AS: the general aggregation raises the error
		}
		agg, ok := it.Expr.(*ExprAggregate)
		if !ok {
			return nil
		}
		p := aggProj{outVar: it.Var, distinct: agg.Distinct}
		switch agg.Fn {
		case "COUNT":
			p.kind = aggCount
		case "SUM":
			p.kind = aggSum
		case "MIN":
			p.kind = aggMin
		case "MAX":
			p.kind = aggMax
		case "AVG":
			p.kind = aggAvg
		default:
			return nil // SAMPLE/GROUP_CONCAT: arrival-order dependent
		}
		if p.kind != aggCount && p.distinct {
			return nil // SUM(DISTINCT …) and friends: general aggregation
		}
		if agg.Arg != nil {
			av, ok := agg.Arg.(*ExprVar)
			if !ok {
				return nil
			}
			p.argVar = av.Name
		} else if p.kind != aggCount {
			return nil // only COUNT takes *
		}
		spec.projs = append(spec.projs, p)
	}
	return spec
}

// resolve binds the spec's variables to compiled slots. A variable the
// WHERE clause never binds resolves to -1 and behaves as always-unbound.
func (s *streamAggSpec) resolve(sm *slotmap) (gslots []int) {
	gslots = make([]int, len(s.groupVars))
	for i, v := range s.groupVars {
		gslots[i] = sm.lookup(v)
	}
	for i := range s.projs {
		p := &s.projs[i]
		if p.argVar != "" {
			p.slot = sm.lookup(p.argVar)
		} else {
			p.slot = -1
		}
	}
	return gslots
}

// aggAcc is one projection's accumulator within one group.
type aggAcc struct {
	count   int64
	sum     float64
	sumN    int64 // values folded into sum (AVG denominator, SUM presence)
	numErr  bool  // a non-numeric value poisoned SUM/AVG, like q.aggregate
	best    rdf.Term
	bestSet bool
	seenID  map[store.ID]struct{} // COUNT(DISTINCT ?v)
	seenRow map[string]struct{}   // COUNT(DISTINCT *)
}

// aggGroup is one group's state: the representative row (for key slots)
// and one accumulator per projection.
type aggGroup struct {
	rep  []store.ID
	accs []aggAcc
}

// streamAgg folds streamed ID-space rows into per-group accumulators.
type streamAgg struct {
	ex     *idExec
	spec   *streamAggSpec
	gslots []int
	groups map[string]*aggGroup
	order  []*aggGroup
	keyBuf []byte
	rowBuf []byte
}

func newStreamAgg(ex *idExec, spec *streamAggSpec, gslots []int) *streamAgg {
	a := &streamAgg{ex: ex, spec: spec, gslots: gslots, groups: map[string]*aggGroup{}}
	if len(gslots) == 0 {
		// a grouped query without GROUP BY has exactly one group, present
		// even over zero rows (COUNT(*) = 0)
		a.group(nil)
	}
	return a
}

// group returns (creating on first sight) the accumulator group for row r.
func (a *streamAgg) group(r []store.ID) *aggGroup {
	a.keyBuf = packIDKey(a.keyBuf[:0], r, a.gslots)
	g, ok := a.groups[string(a.keyBuf)]
	if !ok {
		g = &aggGroup{accs: make([]aggAcc, len(a.spec.projs))}
		if r != nil {
			g.rep = append([]store.ID(nil), r...)
		}
		a.groups[string(a.keyBuf)] = g
		a.order = append(a.order, g)
	}
	return g
}

// add folds one pipeline row into its group's accumulators.
func (a *streamAgg) add(r []store.ID) {
	g := a.group(r)
	for pi := range a.spec.projs {
		p := &a.spec.projs[pi]
		acc := &g.accs[pi]
		switch p.kind {
		case aggKey:
			// nothing to accumulate
		case aggCount:
			switch {
			case p.argVar == "" && p.distinct: // COUNT(DISTINCT *)
				if acc.seenRow == nil {
					acc.seenRow = map[string]struct{}{}
				}
				a.rowBuf = packIDKeyAll(a.rowBuf[:0], r)
				acc.seenRow[string(a.rowBuf)] = struct{}{}
			case p.argVar == "": // COUNT(*)
				acc.count++
			case p.slot >= 0 && r[p.slot] != store.NoID:
				if p.distinct {
					if acc.seenID == nil {
						acc.seenID = map[store.ID]struct{}{}
					}
					acc.seenID[r[p.slot]] = struct{}{}
				} else {
					acc.count++
				}
			}
		case aggSum, aggAvg:
			if p.slot >= 0 && r[p.slot] != store.NoID && !acc.numErr {
				f, ok := a.ex.term(r[p.slot]).Float()
				if !ok {
					acc.numErr = true // poison: the binding is omitted
					break
				}
				acc.sum += f
				acc.sumN++
			}
		case aggMin, aggMax:
			if p.slot >= 0 && r[p.slot] != store.NoID {
				t := a.ex.term(r[p.slot])
				if !acc.bestSet {
					acc.best, acc.bestSet = t, true
					break
				}
				c, err := termOrder(t, acc.best)
				if err != nil {
					c = t.Compare(acc.best)
				}
				if (p.kind == aggMin && c < 0) || (p.kind == aggMax && c > 0) {
					acc.best = t
				}
			}
		}
	}
}

// groupCount reports the number of groups currently held.
func (a *streamAgg) groupCount() int { return len(a.order) }

// emit materializes the finished groups as Bindings, in first-appearance
// order like q.aggregate.
func (a *streamAgg) emit() []Binding {
	out := make([]Binding, 0, len(a.order))
	for _, g := range a.order {
		b := make(Binding, len(a.spec.projs))
		for pi := range a.spec.projs {
			p := &a.spec.projs[pi]
			acc := &g.accs[pi]
			switch p.kind {
			case aggKey:
				if p.slot >= 0 && g.rep != nil && g.rep[p.slot] != store.NoID {
					b[p.outVar] = a.ex.term(g.rep[p.slot])
				}
			case aggCount:
				n := acc.count
				if acc.seenID != nil {
					n = int64(len(acc.seenID))
				}
				if acc.seenRow != nil {
					n = int64(len(acc.seenRow))
				}
				b[p.outVar] = rdf.NewInteger(n)
			case aggSum:
				if !acc.numErr {
					b[p.outVar] = formatFloat(acc.sum) // empty group sums to 0
				}
			case aggAvg:
				switch {
				case acc.numErr:
				case acc.sumN == 0:
					b[p.outVar] = rdf.NewInteger(0)
				default:
					b[p.outVar] = formatFloat(acc.sum / float64(acc.sumN))
				}
			case aggMin, aggMax:
				if acc.bestSet {
					b[p.outVar] = acc.best // empty group: binding omitted
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// packIDKeyAll packs every slot of the row — the COUNT(DISTINCT *) key.
// Slot order is fixed per plan, so equal packed rows are equal solutions.
func packIDKeyAll(buf []byte, r []store.ID) []byte {
	for _, v := range r {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}
