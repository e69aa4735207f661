package sparql

// Plan compilation for the ID-space execution engine.
//
// A parsed query is compiled against one store into a plan whose variables
// are dense slot indices and whose constant terms are interned IDs. A
// solution row is then a flat []store.ID of length nslots — no maps, no
// rdf.Term values — and the whole pattern algebra executes on rows in that
// encoded space (see stream.go). Terms are materialized only at the
// FILTER / BIND / ORDER BY boundaries, by the slot programs that read
// them (slotprog.go), and at projection (exec.go).
//
// Constants the store has never seen (and terms produced by BIND/VALUES
// that are not in the store) are interned into a small executor-local
// dictionary whose IDs start above the store's MaxID, so every term the
// query can mention has exactly one ID and equality stays a uint32
// compare. A local ID probed against the store indexes simply matches
// nothing, which is exactly the right semantics.

import (
	"fmt"
	"slices"

	"repro/internal/store"
)

// slotmap assigns dense slot indices to variable names.
type slotmap struct {
	byName map[string]int
	names  []string // slot → name
}

func newSlotmap() *slotmap { return &slotmap{byName: make(map[string]int)} }

// slot returns the slot for name, assigning the next free one if needed.
func (sm *slotmap) slot(name string) int {
	if i, ok := sm.byName[name]; ok {
		return i
	}
	i := len(sm.names)
	sm.byName[name] = i
	sm.names = append(sm.names, name)
	return i
}

// lookup returns the slot for name, or -1 if the query never binds it.
func (sm *slotmap) lookup(name string) int {
	if i, ok := sm.byName[name]; ok {
		return i
	}
	return -1
}

func (sm *slotmap) count() int { return len(sm.names) }

// cterm is one compiled triple-pattern position: a variable slot, or an
// interned constant.
type cterm struct {
	slot int      // variable slot; -1 for constants
	id   store.ID // constant ID when slot < 0 (may be executor-local)
}

func (t cterm) isVar() bool { return t.slot >= 0 }

// cpattern is one compiled triple pattern.
type cpattern struct {
	s, p, o cterm
	slots   []int // distinct variable slots in the pattern
}

// at returns the pattern's term in position pos.
func (p *cpattern) at(pos store.Pos) cterm {
	switch pos {
	case store.PosS:
		return p.s
	case store.PosP:
		return p.p
	}
	return p.o
}

// cnode is a node of the compiled pattern algebra.
type cnode interface{ isCNode() }

// cBGP is a compiled basic graph pattern. bound, when set, is the top-k
// bound its rows flow to (see publishTo).
type cBGP struct {
	pats   []cpattern
	bound  *topkBound
	leaves []bool // non-nil: its rows reach a sink that folds leaves, which reads these slots (see foldLeaves)
}

// cgroup is a compiled group: elements joined left to right, then filters.
type cgroup struct {
	elems   []cnode
	filters []cfilter
}

// cfilter is a compiled FILTER (or HAVING) condition: its slot program
// and the slots it reads. A pure kind test of one variable (isLiteral(?o),
// !isIRI(?o), …) also names that slot and the kinds it passes, so a run
// over the slot is filtered whole (streamExec.filtered).
type cfilter struct {
	test     testProg
	slots    []int
	kindSlot int // -1: not a pure kind test
	kinds    kindBits
}

// cOptional is a compiled OPTIONAL left join.
type cOptional struct{ inner *cgroup }

// cUnion is a compiled UNION.
type cUnion struct{ left, right *cgroup }

// cMinus is a compiled MINUS.
type cMinus struct{ inner *cgroup }

// cBind is a compiled BIND(expr AS ?v).
type cBind struct {
	val  valProg
	slot int
}

// cValues is a compiled VALUES block; NoID in a row means UNDEF.
type cValues struct {
	slots []int
	rows  [][]store.ID
}

func (*cBGP) isCNode()      {}
func (*cgroup) isCNode()    {}
func (*cOptional) isCNode() {}
func (*cUnion) isCNode()    {}
func (*cMinus) isCNode()    {}
func (*cBind) isCNode()     {}
func (*cValues) isCNode()   {}

// compiler lowers the parsed pattern tree into the compiled algebra,
// interning constants through the executor so the plan is bound to one
// store snapshot.
type compiler struct {
	ex    *idExec
	slots *slotmap
	binds []int // the slots a BIND writes
}

func (c *compiler) group(g *GroupPattern) (*cgroup, error) {
	out := &cgroup{}
	for _, el := range g.Elems {
		n, err := c.node(el)
		if err != nil {
			return nil, err
		}
		out.elems = append(out.elems, n)
	}
	for _, f := range g.Filters {
		out.filters = append(out.filters, c.filter(f))
	}
	return out, nil
}

func (c *compiler) node(p GraphPattern) (cnode, error) {
	switch x := p.(type) {
	case *BGP:
		b := &cBGP{pats: make([]cpattern, len(x.Patterns))}
		for i, tp := range x.Patterns {
			b.pats[i] = c.pattern(tp)
		}
		return b, nil
	case *GroupPattern:
		return c.group(x)
	case *OptionalPattern:
		inner, err := c.group(x.Inner)
		if err != nil {
			return nil, err
		}
		return &cOptional{inner: inner}, nil
	case *UnionPattern:
		l, err := c.group(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.group(x.Right)
		if err != nil {
			return nil, err
		}
		return &cUnion{left: l, right: r}, nil
	case *MinusPattern:
		inner, err := c.group(x.Inner)
		if err != nil {
			return nil, err
		}
		return &cMinus{inner: inner}, nil
	case *BindPattern:
		b := &cBind{val: c.expr().val(x.Expr), slot: c.slots.slot(x.Var)}
		c.binds = append(c.binds, b.slot)
		return b, nil
	case *ValuesPattern:
		v := &cValues{slots: make([]int, len(x.Vars))}
		for i, name := range x.Vars {
			v.slots[i] = c.slots.slot(name)
		}
		for _, row := range x.Rows {
			ids := make([]store.ID, len(row))
			for i, t := range row {
				if !t.IsZero() {
					ids[i] = c.ex.intern(t)
				}
			}
			v.rows = append(v.rows, ids)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("sparql: unknown pattern %T", p)
	}
}

func (c *compiler) pattern(tp TriplePattern) cpattern {
	ct := func(n NodePattern) cterm {
		if n.IsVar() {
			return cterm{slot: c.slots.slot(n.Var)}
		}
		return cterm{slot: -1, id: c.ex.intern(n.Term)}
	}
	p := cpattern{s: ct(tp.S), p: ct(tp.P), o: ct(tp.O)}
	add := func(t cterm) {
		if !t.isVar() {
			return
		}
		for _, s := range p.slots {
			if s == t.slot {
				return
			}
		}
		p.slots = append(p.slots, t.slot)
	}
	add(p.s)
	add(p.p)
	add(p.o)
	return p
}

// expr is the expression compiler over the plan's slot table. A
// variable the pattern tree has not bound is assigned a slot all the
// same: it stays unbound at runtime.
func (c *compiler) expr() exprCompiler { return exprCompiler{slot: c.slots.slot} }

// filter compiles a FILTER or HAVING condition.
func (c *compiler) filter(e Expression) cfilter {
	f := cfilter{test: c.expr().test(e), slots: c.exprVars(e), kindSlot: -1}
	if v, kinds, ok := kindTest(e); ok {
		f.kindSlot, f.kinds = c.slots.slot(v), kinds
	}
	return f
}

// exprVars returns the distinct slots of the variables e references.
func (c *compiler) exprVars(e Expression) []int {
	var out []int
	walkVars(e, func(name string) {
		if s := c.slots.slot(name); !slices.Contains(out, s) {
			out = append(out, s)
		}
	})
	return out
}
