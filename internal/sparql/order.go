package sparql

import "repro/internal/rdf"

// Merge-side ORDER BY support. The federated streaming merge needs to
// compare rows coming from different branches under the query's ORDER BY
// conditions with exactly the engines' comparison semantics — otherwise
// an ordered k-way merge of locally-sorted branches would not reproduce
// the order a single endpoint over the union corpus establishes. The
// helpers here share their comparison with sortRows and the top-k heap,
// the executor's own sorts, so the two cannot drift apart.

// OrderKey is a row's precomputed ORDER BY sort key: every condition
// expression evaluated once, so repeated comparisons during a k-way
// merge do not re-evaluate them. Build with NewOrderKeyer (or, from
// values evaluated elsewhere, NewOrderKey), compare with
// CompareOrderKeys under the same conditions.
type OrderKey struct {
	keys []rdf.Term
	errs []bool
}

// NewOrderKey is the key of condition values already evaluated: keys[i]
// is condition i's value, and errs[i] marks an expression error (an
// unbound variable included), which sorts first ascending, per the
// engines' sort.
func NewOrderKey(keys []rdf.Term, errs []bool) OrderKey { return OrderKey{keys: keys, errs: errs} }

// CompareOrderKeys orders two keys under conds: negative when a sorts
// before b, positive when after, zero when tied on every condition.
func CompareOrderKeys(conds []OrderCond, a, b OrderKey) int {
	for i, c := range conds {
		cmp := compareOrderCond(a, b, i)
		if cmp == 0 {
			continue
		}
		if c.Desc {
			return -cmp
		}
		return cmp
	}
	return 0
}

// OrderByVars returns the distinct variable names the ORDER BY
// conditions reference, in first-appearance order. The federation layer
// uses it to check that a fanned-out query's sort keys survive
// projection: the merge only sees projected rows, so a sort variable
// outside the SELECT list would evaluate as unbound on every merged row
// and the "ordered" merge would silently degrade to branch
// concatenation.
func OrderByVars(conds []OrderCond) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range conds {
		walkVars(c.Expr, func(name string) {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		})
	}
	return out
}

// compareOrderCond compares one condition's key ascending: unbound/error
// first, then SPARQL operator order, falling back to the total term
// order for incomparable pairs.
func compareOrderCond(a, b OrderKey, i int) int {
	ea, eb := a.errs[i], b.errs[i]
	switch {
	case ea && eb:
		return 0
	case ea:
		return -1
	case eb:
		return 1
	}
	cmp, err := TermOrder(a.keys[i], b.keys[i])
	if err != nil {
		cmp = a.keys[i].Compare(b.keys[i])
	}
	return cmp
}
