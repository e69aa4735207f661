package reference

import (
	"errors"
	"fmt"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// The reference's expression evaluator: a walk of the AST over one
// Binding. It owns variable access, error propagation, the three-valued
// logic and the special forms; the values of operators and built-ins
// (sparql.Apply) are the one thing it shares with the executor's slot
// programs.

var (
	errUnbound  = errors.New("reference: unbound variable")
	errNotBound = errors.New("reference: BOUND requires a variable")
	errNoValue  = errors.New("reference: COALESCE: all arguments errored")
)

// EvalExpr evaluates an expression against one binding; an error is the
// SPARQL expression error (FILTER reads it as false, BIND and a projection
// leave their variable unbound). An aggregate node is an error here: the
// grouping substitutes aggregates before evaluating an expression.
func EvalExpr(e sparql.Expression, b sparql.Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case *sparql.ExprTerm:
		return x.Term, nil
	case *sparql.ExprVar:
		t, ok := b[x.Name]
		if !ok {
			return rdf.Term{}, errUnbound
		}
		return t, nil
	case *sparql.ExprUnary:
		if x.Op == "!" {
			v, err := evalBool(x.X, b)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewBoolean(!v), nil
		}
		t, err := EvalExpr(x.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return sparql.Apply(x.Op, []rdf.Term{t})
	case *sparql.ExprBinary:
		return evalBinary(x, b)
	case *sparql.ExprCall:
		return evalCall(x, b)
	}
	return rdf.Term{}, fmt.Errorf("reference: cannot evaluate %T here", e)
}

func evalBool(e sparql.Expression, b sparql.Binding) (bool, error) {
	t, err := EvalExpr(e, b)
	if err != nil {
		return false, err
	}
	return sparql.EffectiveBool(t)
}

func evalBinary(x *sparql.ExprBinary, b sparql.Binding) (rdf.Term, error) {
	if x.Op == "||" || x.Op == "&&" {
		// both sides are evaluated; a side that decides the answer (true
		// for ||, false for &&) wins over an error on the other
		decides := x.Op == "||"
		lv, lerr := evalBool(x.L, b)
		rv, rerr := evalBool(x.R, b)
		switch {
		case lerr == nil && lv == decides, rerr == nil && rv == decides:
			return rdf.NewBoolean(decides), nil
		case lerr != nil:
			return rdf.Term{}, lerr
		case rerr != nil:
			return rdf.Term{}, rerr
		}
		return rdf.NewBoolean(!decides), nil
	}
	l, err := EvalExpr(x.L, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := EvalExpr(x.R, b)
	if err != nil {
		return rdf.Term{}, err
	}
	return sparql.Apply(x.Op, []rdf.Term{l, r})
}

func evalCall(x *sparql.ExprCall, b sparql.Binding) (rdf.Term, error) {
	switch x.Fn {
	case "BOUND":
		v, ok := x.Args[0].(*sparql.ExprVar)
		if !ok {
			return rdf.Term{}, errNotBound
		}
		_, bound := b[v.Name]
		return rdf.NewBoolean(bound), nil
	case "COALESCE":
		for _, a := range x.Args {
			if t, err := EvalExpr(a, b); err == nil {
				return t, nil
			}
		}
		return rdf.Term{}, errNoValue
	case "IF":
		c, err := evalBool(x.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		if c {
			return EvalExpr(x.Args[1], b)
		}
		return EvalExpr(x.Args[2], b)
	}
	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		t, err := EvalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	return sparql.Apply(x.Fn, args)
}

// OrderKeyOf evaluates the ORDER BY condition expressions on row with
// this evaluator, as the key CompareOrderKeys compares.
func OrderKeyOf(conds []sparql.OrderCond, row sparql.Binding) sparql.OrderKey {
	keys, errs := make([]rdf.Term, len(conds)), make([]bool, len(conds))
	for i, c := range conds {
		t, err := EvalExpr(c.Expr, row)
		keys[i], errs[i] = t, err != nil
	}
	return sparql.NewOrderKey(keys, errs)
}
