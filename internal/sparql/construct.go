package sparql

import (
	"iter"
	"slices"
	"strconv"

	"repro/internal/rdf"
)

// Template is a triple template — CONSTRUCT's, or an update's INSERT or
// DELETE — with every variable resolved to its column in the positional
// solutions it is instantiated against: the one template instantiation,
// shared by CONSTRUCT and the update path.
type Template [][3]templateSlot

// templateSlot is one position of a template triple: the column of a
// variable, or (col < 0) a constant term.
type templateSlot struct {
	term rdf.Term
	col  int
}

// NewTemplate resolves the variables of pats against vars, the columns
// of the solutions. A variable outside vars keeps col < 0 and the zero
// term: unbound in every solution.
func NewTemplate(pats []TriplePattern, vars []string) Template {
	t := make(Template, len(pats))
	for i, tp := range pats {
		for j, n := range [3]NodePattern{tp.S, tp.P, tp.O} {
			t[i][j] = templateSlot{term: n.Term, col: -1}
			if n.IsVar() {
				t[i][j].col = slices.Index(vars, n.Var)
			}
		}
	}
	return t
}

// Instantiate hands fn, in template order, each triple of the template
// instantiated against row, a solution aligned with the template's
// columns. A triple with an unbound variable, a literal subject or a
// non-IRI predicate is skipped — per SPARQL 1.1, not an error. fresh
// returns the node a blank node label of the template denotes in this
// solution; a nil fresh is for templates the parser keeps blank-free
// (DELETE DATA, DELETE). The first error of fn stops the instantiation
// and is returned.
func (t Template) Instantiate(row []rdf.Term, fresh func(label string) rdf.Term, fn func(rdf.Triple) error) error {
	for _, p := range t {
		var tr [3]rdf.Term
		for i, sl := range p {
			switch {
			case sl.col >= 0:
				tr[i] = row[sl.col]
			case fresh != nil && sl.term.IsBlank():
				tr[i] = fresh(sl.term.Value)
			default:
				tr[i] = sl.term
			}
		}
		if tr[0].IsZero() || tr[0].IsLiteral() || !tr[1].IsIRI() || tr[2].IsZero() {
			continue
		}
		if err := fn(rdf.Triple{S: tr[0], P: tr[1], O: tr[2]}); err != nil {
			return err
		}
	}
	return nil
}

// Construct instantiates the CONSTRUCT template once per solution, in
// order; sols are positional rows aligned with vars. Blank nodes in the
// template are scoped per solution: label b of the i-th solution is
// b_si. Exported for the reference evaluator, which produces its
// solutions its own way and shares only the templating.
func (q *Query) Construct(vars []string, sols iter.Seq[[]rdf.Term]) *rdf.Graph {
	g := rdf.NewGraph()
	tmpl := NewTemplate(q.Template, vars)
	i := 0
	for row := range sols {
		scope := "_s" + strconv.Itoa(i)
		i++
		tmpl.Instantiate(row, func(label string) rdf.Term { return rdf.NewBlank(label + scope) },
			func(tr rdf.Triple) error { g.Add(tr); return nil })
	}
	return g
}
