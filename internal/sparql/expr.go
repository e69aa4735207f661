package sparql

// Expression semantics: the values of SPARQL's operators and built-in
// functions over evaluated arguments (Apply), the effective boolean value
// and the operator order. The executor compiles every expression into a
// slot program (slotprog.go) that calls these; the reference evaluator
// walks the AST and calls Apply. The two share the values of the
// expression language and nothing of its evaluation: variable access,
// error propagation, the three-valued logic and the special forms BOUND,
// COALESCE and IF are each their own.

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"repro/internal/rdf"
)

// Binding maps variable names to terms. A missing key means unbound.
type Binding map[string]rdf.Term

// errExpr is the SPARQL expression-error sentinel: filters treat it as
// false, BIND leaves the variable unbound, aggregates skip the row.
var errExpr = errors.New("sparql: expression error")

// Static expression errors for the hot comparison paths: building a
// fmt.Errorf per incomparable pair dominates ORDER BY over IRIs.
var (
	errIncomparable     = fmt.Errorf("%w: incomparable terms", errExpr)
	errMalformedNumeric = fmt.Errorf("%w: malformed numeric literal", errExpr)
	errUnbound          = fmt.Errorf("%w: unbound variable", errExpr)
	// errUnordered is TermOrder's answer for NaN, which no number is
	// less than, equal to or greater than: "<" and its family are false,
	// and ORDER BY places it through the total term order.
	errUnordered = fmt.Errorf("%w: NaN is unordered", errExpr)
)

func exprErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errExpr, fmt.Sprintf(format, args...))
}

// EffectiveBool computes the effective boolean value of a term.
func EffectiveBool(t rdf.Term) (bool, error) {
	if t.Kind != rdf.KindLiteral {
		return false, exprErrf("no boolean value for %v", t)
	}
	if v, ok := t.Bool(); ok {
		return v, nil
	}
	if t.IsNumeric() {
		f, ok := t.Float()
		if !ok {
			return false, nil // malformed numeric literal → false EBV
		}
		return f != 0 && !math.IsNaN(f), nil
	}
	if t.EffectiveDatatype() == rdf.XSDString || t.Lang != "" {
		return t.Value != "", nil
	}
	return false, exprErrf("no boolean value for %v", t)
}

// Apply is the value of a SPARQL operator or built-in function over its
// evaluated arguments: a binary operator other than || and && on two
// arguments, unary minus ("-" on one), or a built-in call other than
// BOUND, COALESCE and IF, whose arguments are not all evaluated first.
// An error is SPARQL's expression error.
func Apply(op string, args []rdf.Term) (rdf.Term, error) {
	switch op {
	case "=", "!=", "<", ">", "<=", ">=":
		v, err := compare(op, args[0], args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(v), nil
	case "-":
		if len(args) == 1 {
			return negate(args[0])
		}
		return arith(op, args[0], args[1])
	case "+", "*", "/":
		return arith(op, args[0], args[1])
	}
	return callFn(op, args)
}

// compare is a comparison operator's value: "=" and "!=" by termsEqual,
// the "<" family by TermOrder, under which NaN is less than, equal to and
// greater than nothing.
func compare(op string, l, r rdf.Term) (bool, error) {
	if op == "=" || op == "!=" {
		eq, err := termsEqual(l, r)
		return eq == (op == "="), err
	}
	c, err := TermOrder(l, r)
	if err == errUnordered {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	switch op {
	case "<":
		return c < 0, nil
	case ">":
		return c > 0, nil
	case "<=":
		return c <= 0, nil
	}
	return c >= 0, nil
}

func negate(t rdf.Term) (rdf.Term, error) {
	f, ok := t.Float()
	if !ok {
		return rdf.Term{}, exprErrf("unary minus on non-numeric %v", t)
	}
	return numericResult(-f, t, t), nil
}

func arith(op string, l, r rdf.Term) (rdf.Term, error) {
	lf, lok := l.Float()
	rf, rok := r.Float()
	if !lok || !rok {
		return rdf.Term{}, exprErrf("arithmetic on non-numeric operands")
	}
	var f float64
	switch op {
	case "+":
		f = lf + rf
	case "-":
		f = lf - rf
	case "*":
		f = lf * rf
	case "/":
		if rf == 0 {
			return rdf.Term{}, exprErrf("division by zero")
		}
		f = lf / rf
	default:
		return rdf.Term{}, exprErrf("unknown binary op %s", op)
	}
	return numericResult(f, l, r), nil
}

// numericResult picks a result datatype by numeric promotion: double if
// either operand is double/float, decimal if either is decimal or the
// result is fractional, integer otherwise.
func numericResult(f float64, l, r rdf.Term) rdf.Term {
	isDouble := func(t rdf.Term) bool {
		return t.Datatype == rdf.XSDDouble || t.Datatype == rdf.XSDFloat
	}
	if isDouble(l) || isDouble(r) {
		return rdf.NewDouble(f)
	}
	if l.Datatype == rdf.XSDDecimal || r.Datatype == rdf.XSDDecimal || f != math.Trunc(f) {
		return rdf.NewDecimal(f)
	}
	return rdf.NewInteger(int64(f))
}

// termsEqual implements SPARQL "=" semantics.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l == r {
		return true, nil
	}
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := l.Float()
		rf, rok := r.Float()
		if lok && rok {
			return lf == rf, nil
		}
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		// same value space comparisons for strings handled by ==
		// different datatypes → error unless both string-ish
		ld, rd := l.EffectiveDatatype(), r.EffectiveDatatype()
		if ld == rd {
			return false, nil
		}
		return false, errIncomparable
	}
	return false, nil
}

// TermOrder implements SPARQL "<" family semantics. It errors on
// incomparable operands, and on NaN, which is unordered. Exported for the
// reference evaluator's MIN/MAX.
func TermOrder(l, r rdf.Term) (int, error) {
	if l.IsNumeric() && r.IsNumeric() {
		lf, lok := l.Float()
		rf, rok := r.Float()
		if !lok || !rok {
			return 0, errMalformedNumeric
		}
		switch {
		case math.IsNaN(lf) || math.IsNaN(rf):
			return 0, errUnordered
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		ld, rd := l.EffectiveDatatype(), r.EffectiveDatatype()
		stringish := func(d string) bool { return d == rdf.XSDString || d == rdf.RDFLangString }
		if (stringish(ld) && stringish(rd)) ||
			(ld == rd && (ld == rdf.XSDDate || ld == rdf.XSDDateTime || ld == rdf.XSDTime)) {
			return strings.Compare(l.Value, r.Value), nil
		}
		if ld == rd && ld == rdf.XSDBoolean {
			lb, _ := l.Bool()
			rb, _ := r.Bool()
			switch {
			case lb == rb:
				return 0, nil
			case !lb:
				return -1, nil
			default:
				return 1, nil
			}
		}
	}
	return 0, errIncomparable
}

// regexCache holds compiled REGEX/REPLACE patterns; queries evaluate on
// many goroutines at once, so it is locked.
var regexCache = struct {
	sync.Mutex
	m map[string]*regexp.Regexp
}{m: make(map[string]*regexp.Regexp)}

func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := flags + "\x00" + pattern
	regexCache.Lock()
	re, ok := regexCache.m[key]
	regexCache.Unlock()
	if ok {
		return re, nil
	}
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	if strings.Contains(flags, "s") {
		p = "(?s)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, exprErrf("bad regex %q: %v", pattern, err)
	}
	regexCache.Lock()
	if len(regexCache.m) < 1024 {
		regexCache.m[key] = re
	}
	regexCache.Unlock()
	return re, nil
}

func stringValue(t rdf.Term) (string, error) {
	switch t.Kind {
	case rdf.KindLiteral:
		return t.Value, nil
	case rdf.KindIRI:
		return t.Value, nil
	default:
		return "", exprErrf("no string value for blank node")
	}
}

// callFn is a built-in function's value over its evaluated arguments.
func callFn(fn string, args []rdf.Term) (rdf.Term, error) {
	switch fn {
	case "STR":
		s, err := stringValue(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(s), nil
	case "LANG":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, exprErrf("LANG of non-literal")
		}
		return rdf.NewLiteral(args[0].Lang), nil
	case "LANGMATCHES":
		tag := strings.ToLower(args[0].Value)
		rng := strings.ToLower(args[1].Value)
		if rng == "*" {
			return rdf.NewBoolean(tag != ""), nil
		}
		return rdf.NewBoolean(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "DATATYPE":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, exprErrf("DATATYPE of non-literal")
		}
		return rdf.NewIRI(args[0].EffectiveDatatype()), nil
	case "IRI", "URI":
		s, err := stringValue(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(s), nil
	case "ISIRI", "ISURI":
		return rdf.NewBoolean(args[0].IsIRI()), nil
	case "ISBLANK":
		return rdf.NewBoolean(args[0].IsBlank()), nil
	case "ISLITERAL":
		return rdf.NewBoolean(args[0].IsLiteral()), nil
	case "ISNUMERIC":
		return rdf.NewBoolean(args[0].IsNumeric()), nil
	case "STRLEN":
		s, err := stringValue(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewInteger(int64(len([]rune(s)))), nil
	case "UCASE":
		return rdf.NewLiteral(strings.ToUpper(args[0].Value)), nil
	case "LCASE":
		return rdf.NewLiteral(strings.ToLower(args[0].Value)), nil
	case "CONTAINS":
		return rdf.NewBoolean(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		return rdf.NewBoolean(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STRENDS":
		return rdf.NewBoolean(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			s, err := stringValue(a)
			if err != nil {
				return rdf.Term{}, err
			}
			sb.WriteString(s)
		}
		return rdf.NewLiteral(sb.String()), nil
	case "REPLACE":
		flags := ""
		if len(args) == 4 {
			flags = args[3].Value
		}
		re, err := compileRegex(args[1].Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(re.ReplaceAllString(args[0].Value, args[2].Value)), nil
	case "REGEX":
		s, err := stringValue(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		flags := ""
		if len(args) == 3 {
			flags = args[2].Value
		}
		re, err := compileRegex(args[1].Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(re.MatchString(s)), nil
	case "ABS":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, exprErrf("ABS of non-numeric")
		}
		return numericResult(math.Abs(f), args[0], args[0]), nil
	case "CEIL":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, exprErrf("CEIL of non-numeric")
		}
		return rdf.NewInteger(int64(math.Ceil(f))), nil
	case "FLOOR":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, exprErrf("FLOOR of non-numeric")
		}
		return rdf.NewInteger(int64(math.Floor(f))), nil
	case "ROUND":
		f, ok := args[0].Float()
		if !ok {
			return rdf.Term{}, exprErrf("ROUND of non-numeric")
		}
		return rdf.NewInteger(int64(math.Round(f))), nil
	case "SAMETERM":
		return rdf.NewBoolean(args[0] == args[1]), nil
	}
	return rdf.Term{}, exprErrf("unimplemented function %s", fn)
}

// formatFloat renders an aggregate numeric result: integer when integral.
func formatFloat(f float64) rdf.Term {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return rdf.NewInteger(int64(f))
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'f', -1, 64), rdf.XSDDecimal)
}
