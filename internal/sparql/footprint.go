package sparql

import (
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Query footprint extraction for federated source selection: which
// concrete predicate and class IRIs must an endpoint hold for the query
// to possibly produce a row there? Only *required* positions count — a
// triple pattern inside OPTIONAL, UNION, or MINUS can be absent from a
// source without silencing it, so those subtrees contribute nothing to
// the footprint and the pruning stays conservative.

// Footprint returns the concrete predicate IRIs and the concrete class
// IRIs (objects of rdf:type patterns) that every solution of the query
// must match. An endpoint whose extracted index advertises neither a
// required predicate nor a required class provably cannot contribute
// rows. rdf:type itself is not reported as a predicate — any endpoint
// with typed instances holds rdf:type triples, so it never discriminates.
// Both slices are deduplicated and sorted; empty slices mean the query
// requires nothing provable (e.g. all-variable patterns) and no source
// can be pruned.
func Footprint(q *Query) (predicates, classes []string) {
	if q == nil || q.Where == nil {
		return nil, nil
	}
	preds := map[string]struct{}{}
	cls := map[string]struct{}{}
	footprintGroup(q.Where, preds, cls)
	return sortedKeys(preds), sortedKeys(cls)
}

func footprintGroup(g *GroupPattern, preds, cls map[string]struct{}) {
	for _, el := range g.Elems {
		switch x := el.(type) {
		case *BGP:
			for _, tp := range x.Patterns {
				if tp.P.IsVar() || tp.P.Term.Kind != rdf.KindIRI {
					continue
				}
				p := tp.P.Term.Value
				if p == rdf.RDFType {
					if !tp.O.IsVar() && tp.O.Term.Kind == rdf.KindIRI {
						cls[tp.O.Term.Value] = struct{}{}
					}
					continue
				}
				preds[p] = struct{}{}
			}
		case *GroupPattern:
			footprintGroup(x, preds, cls)
			// OPTIONAL / UNION / MINUS / BIND / VALUES: nothing required
		}
	}
}

func sortedKeys(m map[string]struct{}) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BindingKey returns the canonical string key of a binding restricted to
// vars — equal keys iff the bindings agree on every listed variable. A
// nil vars keys on all bound variables of the row, names included and
// sorted, so rows binding the same value under different variables do
// not collide. The reference evaluator deduplicates with it, and
// SortedRows orders by it. With an explicit vars list the key is
// positional.
func BindingKey(b Binding, vars []string) string {
	var sb strings.Builder
	if vars == nil {
		vars = make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('\x01')
			sb.WriteString(b[v].String())
			sb.WriteByte('\x00')
		}
		return sb.String()
	}
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}
