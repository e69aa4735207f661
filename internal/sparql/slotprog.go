package sparql

// Slot programs. Every expression the executor evaluates — FILTER, BIND,
// HAVING, a projection alias, a group key or aggregate argument other
// than a plain variable, an ORDER BY condition — is compiled once, at
// plan time, into closures over the ID row. A variable is its slot, read
// by index: no Binding is built and no name is looked up per row.
//
// What the ID decides is decided without a term. BOUND reads the slot;
// sameTerm of two variables compares IDs (the executor gives equal terms
// equal IDs); isIRI, isBlank and isLiteral read the term's kind, which the store answers without materializing the term
// (store.ReaderAPI.Kind), and so does isNumeric of a non-literal.
// Everything else materializes only the slots it reads.
//
// SPARQL's error rules stay whole: an unbound variable is an error, not
// false, so a kind test on it drops the row and so does its negation
// (!error is an error); || and && are true or false past an error on one
// side only as the three-valued logic says.
//
// The same programs run over a row of terms (exprRow.ex nil): the
// federated ordered merge keys its rows with them (NewOrderKeyer).

import (
	"slices"

	"repro/internal/rdf"
	"repro/internal/store"
)

// valProg is a compiled expression's value on a row; an error is
// SPARQL's expression error.
type valProg func(x *exprRow) (rdf.Term, error)

// testProg is a compiled expression's effective boolean value on a row.
type testProg func(x *exprRow) (bool, error)

// exprRow is the row a program reads: an ID row and the executor its IDs
// belong to, or, with ex nil, a row of terms (the zero Term unbound).
type exprRow struct {
	ex    *idExec
	ids   []store.ID
	terms []rdf.Term
}

// term is the term in slot s; false when s is unbound.
func (x *exprRow) term(s int) (rdf.Term, bool) {
	if x.ex == nil {
		return x.terms[s], !x.terms[s].IsZero()
	}
	if id := x.ids[s]; id != store.NoID {
		return x.ex.term(id), true
	}
	return rdf.Term{}, false
}

// bound reports whether slot s holds a term.
func (x *exprRow) bound(s int) bool {
	if x.ex == nil {
		return !x.terms[s].IsZero()
	}
	return x.ids[s] != store.NoID
}

// kind is the kind of the term in slot s; KindInvalid when s is unbound.
func (x *exprRow) kind(s int) rdf.TermKind {
	if x.ex == nil {
		return x.terms[s].Kind
	}
	if id := x.ids[s]; id != store.NoID {
		return x.ex.kind(id)
	}
	return rdf.KindInvalid
}

// same reports whether slots a and b hold the same term; ok is false when
// either is unbound.
func (x *exprRow) same(a, b int) (same, ok bool) {
	if x.ex == nil {
		return x.terms[a] == x.terms[b], !x.terms[a].IsZero() && !x.terms[b].IsZero()
	}
	return x.ids[a] == x.ids[b], x.ids[a] != store.NoID && x.ids[b] != store.NoID
}

// exprCompiler compiles expressions; slot resolves a variable to the slot
// it is read from, or -1 for one no row holds.
type exprCompiler struct {
	slot func(name string) int
}

// varSlot is e's slot when e is a variable some row holds, else -1.
func (c exprCompiler) varSlot(e Expression) int {
	if v, ok := e.(*ExprVar); ok {
		return c.slot(v.Name)
	}
	return -1
}

// kindBits is the set of term kinds a kind test accepts, one bit per
// rdf.TermKind.
type kindBits uint8

const anyKind = kindBits(1<<rdf.KindIRI | 1<<rdf.KindLiteral | 1<<rdf.KindBlank)

func (k kindBits) has(t rdf.TermKind) bool { return k&(1<<t) != 0 }

// kindTests are the built-ins that test a term's kind alone.
var kindTests = map[string]kindBits{
	"ISIRI": 1 << rdf.KindIRI, "ISURI": 1 << rdf.KindIRI,
	"ISBLANK": 1 << rdf.KindBlank, "ISLITERAL": 1 << rdf.KindLiteral,
}

// kindTest recognizes a pure kind test of one variable, negated or not:
// the variable and the kinds it passes.
func kindTest(e Expression) (v string, kinds kindBits, ok bool) {
	if u, neg := e.(*ExprUnary); neg && u.Op == "!" {
		v, kinds, ok = kindTest(u.X)
		return v, anyKind &^ kinds, ok
	}
	if c, isCall := e.(*ExprCall); isCall && kindTests[c.Fn] != 0 {
		if arg, isVar := c.Args[0].(*ExprVar); isVar {
			return arg.Name, kindTests[c.Fn], true
		}
	}
	return "", 0, false
}

// isTest reports whether e is boolean by construction, which test
// compiles without a term: logic, a comparison, BOUND, a kind test,
// isNumeric or sameTerm.
func isTest(e Expression) bool {
	switch x := e.(type) {
	case *ExprUnary:
		return x.Op == "!"
	case *ExprBinary:
		switch x.Op {
		case "||", "&&", "=", "!=", "<", ">", "<=", ">=":
			return true
		}
	case *ExprCall:
		return x.Fn == "BOUND" || x.Fn == "ISNUMERIC" || x.Fn == "SAMETERM" || kindTests[x.Fn] != 0
	}
	return false
}

// fail is a program that always errs.
func fail[T any](err error) func(*exprRow) (T, error) {
	return func(*exprRow) (T, error) {
		var zero T
		return zero, err
	}
}

// then is a program that hands the value of a to f; a's error wins.
func then[T any](a valProg, f func(rdf.Term) (T, error)) func(*exprRow) (T, error) {
	return func(x *exprRow) (T, error) {
		t, err := a(x)
		if err != nil {
			var zero T
			return zero, err
		}
		return f(t)
	}
}

// both is a program that hands the values of l and r to f; the first
// error wins.
func both[T any](l, r valProg, f func(a, b rdf.Term) (T, error)) func(*exprRow) (T, error) {
	return func(x *exprRow) (T, error) {
		var zero T
		a, err := l(x)
		if err != nil {
			return zero, err
		}
		b, err := r(x)
		if err != nil {
			return zero, err
		}
		return f(a, b)
	}
}

// val compiles e into its value program.
func (c exprCompiler) val(e Expression) valProg {
	if isTest(e) {
		t := c.test(e)
		return func(x *exprRow) (rdf.Term, error) {
			v, err := t(x)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewBoolean(v), nil
		}
	}
	switch e := e.(type) {
	case *ExprTerm:
		t := e.Term
		return func(*exprRow) (rdf.Term, error) { return t, nil }
	case *ExprVar:
		s := c.slot(e.Name)
		if s < 0 {
			return fail[rdf.Term](errUnbound)
		}
		return func(x *exprRow) (rdf.Term, error) {
			if t, ok := x.term(s); ok {
				return t, nil
			}
			return rdf.Term{}, errUnbound
		}
	case *ExprUnary:
		if e.Op == "-" {
			return then(c.val(e.X), negate)
		}
		return fail[rdf.Term](exprErrf("unknown unary op %s", e.Op))
	case *ExprBinary:
		op := e.Op
		return both(c.val(e.L), c.val(e.R), func(a, b rdf.Term) (rdf.Term, error) { return arith(op, a, b) })
	case *ExprCall:
		return c.call(e)
	case *ExprAggregate:
		return fail[rdf.Term](exprErrf("aggregate outside aggregation context"))
	}
	return fail[rdf.Term](exprErrf("unknown expression node %T", e))
}

// call compiles a built-in call that is not a test. Its arguments are
// evaluated into one buffer per call site: a plan runs on one goroutine.
func (c exprCompiler) call(e *ExprCall) valProg {
	args := make([]valProg, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.val(a)
	}
	switch e.Fn {
	case "COALESCE":
		return func(x *exprRow) (rdf.Term, error) {
			for _, a := range args {
				if t, err := a(x); err == nil {
					return t, nil
				}
			}
			return rdf.Term{}, exprErrf("COALESCE: all arguments errored")
		}
	case "IF":
		cond := c.test(e.Args[0])
		return func(x *exprRow) (rdf.Term, error) {
			if v, err := cond(x); err != nil {
				return rdf.Term{}, err
			} else if v {
				return args[1](x)
			}
			return args[2](x)
		}
	}
	fn, buf := e.Fn, make([]rdf.Term, len(args))
	return func(x *exprRow) (rdf.Term, error) {
		for i, a := range args {
			t, err := a(x)
			if err != nil {
				return rdf.Term{}, err
			}
			buf[i] = t
		}
		return callFn(fn, buf)
	}
}

// test compiles e into its effective-boolean-value program.
func (c exprCompiler) test(e Expression) testProg {
	switch e := e.(type) {
	case *ExprUnary:
		if e.Op == "!" {
			t := c.test(e.X)
			return func(x *exprRow) (bool, error) {
				v, err := t(x)
				return !v, err
			}
		}
	case *ExprBinary:
		switch op := e.Op; {
		case op == "||" || op == "&&":
			return logic(c.test(e.L), c.test(e.R), op == "||")
		case isTest(e):
			return both(c.val(e.L), c.val(e.R), func(l, r rdf.Term) (bool, error) { return compare(op, l, r) })
		}
	case *ExprCall:
		if t := c.testCall(e); t != nil {
			return t
		}
	}
	return then(c.val(e), EffectiveBool)
}

// logic is || (or) or && over two tests: a side that decides the answer
// (true for ||, false for &&) wins over an error on the other.
func logic(l, r testProg, or bool) testProg {
	return func(x *exprRow) (bool, error) {
		lv, lerr := l(x)
		if lerr == nil && lv == or {
			return or, nil
		}
		rv, rerr := r(x)
		if rerr == nil && rv == or {
			return or, nil
		}
		if lerr != nil {
			return false, lerr
		}
		return !or, rerr
	}
}

// testCall compiles BOUND, the kind tests, isNumeric and sameTerm; nil
// for any other call. Each of them takes at least one argument; CONCAT
// may take none.
func (c exprCompiler) testCall(e *ExprCall) testProg {
	if !isTest(e) {
		return nil
	}
	s := c.varSlot(e.Args[0])
	switch kinds := kindTests[e.Fn]; {
	case e.Fn == "BOUND":
		if _, isVar := e.Args[0].(*ExprVar); !isVar {
			return fail[bool](exprErrf("BOUND requires a variable"))
		}
		if s < 0 {
			return func(*exprRow) (bool, error) { return false, nil }
		}
		return func(x *exprRow) (bool, error) { return x.bound(s), nil }
	case kinds != 0 && s >= 0:
		return func(x *exprRow) (bool, error) {
			k := x.kind(s)
			return kinds.has(k), unboundIf(k == rdf.KindInvalid)
		}
	case kinds != 0:
		return then(c.val(e.Args[0]), func(t rdf.Term) (bool, error) { return kinds.has(t.Kind), nil })
	case e.Fn == "ISNUMERIC" && s >= 0:
		return func(x *exprRow) (bool, error) {
			if k := x.kind(s); k != rdf.KindLiteral {
				return false, unboundIf(k == rdf.KindInvalid)
			}
			t, _ := x.term(s)
			return t.IsNumeric(), nil
		}
	case e.Fn == "ISNUMERIC":
		return then(c.val(e.Args[0]), func(t rdf.Term) (bool, error) { return t.IsNumeric(), nil })
	case e.Fn == "SAMETERM":
		if t := c.varSlot(e.Args[1]); s >= 0 && t >= 0 {
			return func(x *exprRow) (bool, error) {
				same, ok := x.same(s, t)
				return same, unboundIf(!ok)
			}
		}
		return both(c.val(e.Args[0]), c.val(e.Args[1]), func(a, b rdf.Term) (bool, error) { return a == b, nil })
	}
	return nil
}

// unboundIf is errUnbound when unbound holds, else nil.
func unboundIf(unbound bool) error {
	if unbound {
		return errUnbound
	}
	return nil
}

// NewOrderKeyer compiles the ORDER BY conditions once over rows of terms
// aligned with vars (the zero Term unbound), for a consumer that orders
// rows it did not execute: the federated ordered merge. Each call returns
// a fresh key. The keyer is not safe for concurrent use.
func NewOrderKeyer(conds []OrderCond, vars []string) func(row []rdf.Term) OrderKey {
	c := exprCompiler{slot: func(v string) int { return slices.Index(vars, v) }}
	progs := make([]valProg, len(conds))
	for i := range conds {
		progs[i] = c.val(conds[i].Expr)
	}
	x := &exprRow{}
	return func(row []rdf.Term) OrderKey {
		x.terms = row
		k := OrderKey{keys: make([]rdf.Term, len(progs)), errs: make([]bool, len(progs))}
		for i, p := range progs {
			t, err := p(x)
			k.keys[i], k.errs[i] = t, err != nil
		}
		return k
	}
}
