package sparql

import "repro/internal/store"

// MaxNesting shows the parser's nesting bound to the package's external
// tests, which are external because they import the reference evaluator.
const MaxNesting = maxNesting

// BGPOrder is what the join-order test sees of one basic graph pattern
// of a compiled query, ordered from one seed row.
type BGPOrder struct {
	Patterns int
	Unseen   int   // of them, with a constant the store has never seen: nothing to ask
	Order    []int // what bgpOrder chose
	Greedy   []int // what the greedy loop of the commit before it chose
	Calls    int   // CardinalityIDs calls bgpOrder made
}

// BGPOrders compiles q against st and orders each of its basic graph
// patterns twice over — from an empty seed row and from one with every
// other slot bound — by bgpOrder, behind a reader that counts
// CardinalityIDs calls, and by greedyOrder.
func BGPOrders(q *Query, st store.Queryable) ([]BGPOrder, error) {
	p, err := q.compile(st)
	if err != nil {
		return nil, err
	}
	defer p.ex.release()
	inner := p.ex.rd
	counting := &countingReader{ReaderAPI: inner}
	var bgps []*cBGP
	var walk func(n cnode)
	walk = func(n cnode) {
		switch x := n.(type) {
		case *cBGP:
			bgps = append(bgps, x)
		case *cgroup:
			for _, el := range x.elems {
				walk(el)
			}
		case *cOptional:
			walk(x.inner)
		case *cUnion:
			walk(x.left)
			walk(x.right)
		case *cMinus:
			walk(x.inner)
		}
	}
	walk(p.root)
	var out []BGPOrder
	for _, b := range bgps {
		unseen := 0
		for i := range b.pats {
			if pt := &b.pats[i]; pt.s.id > p.ex.maxStore || pt.p.id > p.ex.maxStore || pt.o.id > p.ex.maxStore {
				unseen++
			}
		}
		for _, every := range []int{0, 2} {
			row := make([]store.ID, p.ex.nslots)
			for sl := 0; every > 0 && sl < len(row); sl += every {
				row[sl] = 1
			}
			se := &streamExec{ex: p.ex, orders: map[*cBGP][]int{}}
			p.ex.rd, counting.calls = counting, 0
			order := se.bgpOrder(b, row)
			p.ex.rd = inner
			out = append(out, BGPOrder{Patterns: len(b.pats), Unseen: unseen, Order: order, Greedy: greedyOrder(p.ex, b, row), Calls: counting.calls})
		}
	}
	return out, nil
}

type countingReader struct {
	store.ReaderAPI
	calls int
}

func (c *countingReader) CardinalityIDs(pat store.IDPattern) int {
	c.calls++
	return c.ReaderAPI.CardinalityIDs(pat)
}

// greedyOrder is bgpOrder as it stood before it read each pattern's
// cardinality once: the same greedy rounds, every round asking the store
// again for every pattern still unplaced. Kept, with greedyEstimate, only
// to pin the order.
func greedyOrder(e *idExec, b *cBGP, row []store.ID) []int {
	bound := make([]bool, e.nslots)
	for sl, v := range row {
		if v != store.NoID {
			bound[sl] = true
		}
	}
	n := len(b.pats)
	used := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		first := len(order) == 0
		best, bestCard, bestConn := -1, 0, false
		for i := range b.pats {
			if used[i] {
				continue
			}
			p := &b.pats[i]
			conn := first
			for _, sl := range p.slots {
				if bound[sl] {
					conn = true
					break
				}
			}
			card := greedyEstimate(e, p, bound)
			if best == -1 || (conn && !bestConn) || (conn == bestConn && card < bestCard) {
				best, bestCard, bestConn = i, card, conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, sl := range b.pats[best].slots {
			bound[sl] = true
		}
	}
	return order
}

func greedyEstimate(e *idExec, p *cpattern, bound []bool) int {
	var pat store.IDPattern
	if !p.s.isVar() {
		pat.S = p.s.id
	}
	if !p.p.isVar() {
		pat.P = p.p.id
	}
	if !p.o.isVar() {
		pat.O = p.o.id
	}
	if pat.S > e.maxStore || pat.P > e.maxStore || pat.O > e.maxStore {
		return 0
	}
	card := e.rd.CardinalityIDs(pat)
	if card == 0 {
		return 0
	}
	if p.s.isVar() && bound[p.s.slot] {
		card = divClamp(card, e.rd.DistinctSubjects())
	}
	if p.p.isVar() && bound[p.p.slot] {
		card = divClamp(card, e.rd.DistinctPredicates())
	}
	if p.o.isVar() && bound[p.o.slot] {
		card = divClamp(card, e.rd.DistinctObjects())
	}
	return card
}
