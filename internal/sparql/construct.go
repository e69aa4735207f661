package sparql

import (
	"fmt"

	"repro/internal/rdf"
)

// Construct instantiates the CONSTRUCT template once per solution,
// skipping template triples with unbound variables or positions whose
// instantiation is not a valid RDF triple (literal subjects/predicates).
// Blank nodes in the template are scoped per solution. Exported for the
// reference evaluator, which produces its solutions its own way and
// shares only the templating.
func (q *Query) Construct(sols []Binding) *rdf.Graph {
	g := rdf.NewGraph()
	for i, s := range sols {
		scope := fmt.Sprintf("s%d", i)
		for _, tp := range q.Template {
			sub, ok := instantiate(tp.S, s, scope)
			if !ok || sub.IsLiteral() {
				continue
			}
			pred, ok := instantiate(tp.P, s, scope)
			if !ok || !pred.IsIRI() {
				continue
			}
			obj, ok := instantiate(tp.O, s, scope)
			if !ok {
				continue
			}
			g.AddSPO(sub, pred, obj)
		}
	}
	return g
}

// instantiate resolves a template slot against a solution. Blank nodes
// are renamed per solution scope so each solution mints fresh nodes.
func instantiate(n NodePattern, b Binding, scope string) (rdf.Term, bool) {
	if n.IsVar() {
		t, ok := b[n.Var]
		return t, ok
	}
	if n.Term.IsBlank() {
		return rdf.NewBlank(n.Term.Value + "_" + scope), true
	}
	return n.Term, true
}
