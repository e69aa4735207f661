package sparql

import "repro/internal/rdf"

// Form is the query form.
type Form uint8

// Query forms supported by the engine.
const (
	FormSelect Form = iota
	FormAsk
	FormConstruct
)

// Query is a parsed SPARQL query.
type Query struct {
	Form     Form
	Prefixes *rdf.PrefixMap

	Distinct bool
	Reduced  bool
	Star     bool
	Select   []SelectItem
	// Template holds the CONSTRUCT triple templates.
	Template []TriplePattern

	Where *GroupPattern

	GroupBy []Expression
	Having  []Expression
	OrderBy []OrderCond
	Limit   int // -1 when absent
	Offset  int
}

// SelectItem is one projection element: a plain variable, or an
// (expression AS variable) binding.
type SelectItem struct {
	Var  string
	Expr Expression // nil for a plain variable
}

// OrderCond is one ORDER BY condition.
type OrderCond struct {
	Expr Expression
	Desc bool
}

// NodePattern is a subject/predicate/object slot in a triple pattern:
// either a concrete term or a variable.
type NodePattern struct {
	Term rdf.Term
	Var  string // non-empty means variable
}

// IsVar reports whether the slot is a variable.
func (n NodePattern) IsVar() bool { return n.Var != "" }

// TriplePattern is one pattern in a basic graph pattern.
type TriplePattern struct {
	S, P, O NodePattern
}

// Vars returns the distinct variable names in the pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	add := func(n NodePattern) {
		if !n.IsVar() {
			return
		}
		for _, v := range out {
			if v == n.Var {
				return
			}
		}
		out = append(out, n.Var)
	}
	add(tp.S)
	add(tp.P)
	add(tp.O)
	return out
}

// GraphPattern is a node of the pattern algebra.
type GraphPattern interface{ isPattern() }

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP struct {
	Patterns []TriplePattern
}

// GroupPattern is a sequence of patterns joined left-to-right. FILTERs
// textually inside the group apply to the whole group per SPARQL
// semantics; the parser records them in Filters.
type GroupPattern struct {
	Elems   []GraphPattern
	Filters []Expression
}

// OptionalPattern is an OPTIONAL { ... } left join.
type OptionalPattern struct {
	Inner *GroupPattern
}

// UnionPattern is { A } UNION { B }.
type UnionPattern struct {
	Left, Right *GroupPattern
}

// MinusPattern is MINUS { ... }.
type MinusPattern struct {
	Inner *GroupPattern
}

// BindPattern is BIND(expr AS ?v).
type BindPattern struct {
	Expr Expression
	Var  string
}

// ValuesPattern is an inline VALUES data block. A zero Term means UNDEF.
type ValuesPattern struct {
	Vars []string
	Rows [][]rdf.Term
}

func (*BGP) isPattern()             {}
func (*GroupPattern) isPattern()    {}
func (*OptionalPattern) isPattern() {}
func (*UnionPattern) isPattern()    {}
func (*MinusPattern) isPattern()    {}
func (*BindPattern) isPattern()     {}
func (*ValuesPattern) isPattern()   {}

// Expression is a node of the expression tree.
type Expression interface{ isExpr() }

// ExprVar references a variable.
type ExprVar struct{ Name string }

// ExprTerm is a constant RDF term.
type ExprTerm struct{ Term rdf.Term }

// ExprBinary applies a binary operator: || && = != < > <= >= + - * /.
type ExprBinary struct {
	Op   string
	L, R Expression
}

// ExprUnary applies a unary operator: ! or -.
type ExprUnary struct {
	Op string
	X  Expression
}

// ExprCall invokes a builtin function (upper-case name).
type ExprCall struct {
	Fn   string
	Args []Expression
}

// ExprAggregate is an aggregate application; Arg is nil for COUNT(*).
type ExprAggregate struct {
	Fn        string
	Distinct  bool
	Arg       Expression
	Separator string // GROUP_CONCAT
}

func (*ExprVar) isExpr()       {}
func (*ExprTerm) isExpr()      {}
func (*ExprBinary) isExpr()    {}
func (*ExprUnary) isExpr()     {}
func (*ExprCall) isExpr()      {}
func (*ExprAggregate) isExpr() {}

// HasAggregate reports whether the expression tree contains an aggregate.
func HasAggregate(e Expression) bool {
	switch x := e.(type) {
	case *ExprAggregate:
		return true
	case *ExprBinary:
		return HasAggregate(x.L) || HasAggregate(x.R)
	case *ExprUnary:
		return HasAggregate(x.X)
	case *ExprCall:
		for _, a := range x.Args {
			if HasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// walkVars calls visit for every variable reference in e, in source order
// and repeats included; an aggregate's argument counts.
func walkVars(e Expression, visit func(name string)) {
	switch x := e.(type) {
	case *ExprVar:
		visit(x.Name)
	case *ExprBinary:
		walkVars(x.L, visit)
		walkVars(x.R, visit)
	case *ExprUnary:
		walkVars(x.X, visit)
	case *ExprCall:
		for _, a := range x.Args {
			walkVars(a, visit)
		}
	case *ExprAggregate:
		if x.Arg != nil {
			walkVars(x.Arg, visit)
		}
	}
}
