// Package update is the live mutation subsystem: it applies parsed
// SPARQL 1.1 Update requests (sparql.ParseUpdate) to any writable
// storage tier through the store.Backend seam.
//
// Semantics follow SPARQL 1.1 Update: the operations of one request run
// in order; a pattern operation (DELETE/INSERT ... WHERE) evaluates its
// WHERE clause once against the state left by the previous operation —
// through the same compiled-plan path as a SELECT query — and both
// templates are instantiated against that single solution sequence, with
// all deletes applied before any inserts. The whole request stays in the
// tier's staging (the disk tier's pending batch, the memory tier's
// working generation) until one final Flush, so readers see it whole or
// not at all, and on the disk tier it commits as a single crash-safe WAL
// record (requests larger than the tier's batch bound commit in ordered
// chunks). Queries see committed state only, so a WHERE that follows
// staged writes commits them first: such a request is one visible step,
// and one record, per WHERE-separated run of operations.
// Apply holds the backend's WriteLock from the first staged write to the
// last Flush, so concurrent requests commit one after the other, each
// whole — and a request that fails part-way is undone under the same
// lock, so once Apply returns a request has applied whole or not at
// all, on either tier.
package update

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Delta is the net effect of an applied update request: the triples that
// are present now but weren't before (Added) and vice versa (Removed),
// each sorted. A triple deleted and re-inserted by the same request
// appears in neither.
type Delta struct {
	Added   []rdf.Triple
	Removed []rdf.Triple
}

// Empty reports whether the update changed nothing.
func (d *Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// applier tracks the net triple delta while ops execute.
type applier struct {
	be      store.Backend
	added   map[rdf.Triple]bool
	removed map[rdf.Triple]bool
}

// Apply executes a parsed update request against a backend and returns
// the net delta. A request applies whole or not at all: Apply holds
// the backend's WriteLock throughout, so requests against one backend
// run one after the other, and when an operation, the context or a
// Flush fails part-way — after earlier operations already landed (they
// sit in the tier's staging: the disk tier's pending batch, the memory
// tier's working generation; and a WHERE has committed whatever was
// staged before it, on either tier) — the net delta applied so far is
// undone before the error is returned, so the triples never disagree
// with the index and summary the caller derives from successful deltas
// only.
func Apply(ctx context.Context, be store.Backend, u *sparql.Update) (*Delta, error) {
	lock := be.WriteLock()
	lock.Lock()
	defer lock.Unlock()
	a := &applier{
		be:      be,
		added:   make(map[rdf.Triple]bool),
		removed: make(map[rdf.Triple]bool),
	}
	if err := a.run(ctx, u); err != nil {
		if uerr := a.undo(); uerr != nil {
			err = errors.Join(err, fmt.Errorf("update: undoing the failed request: %w", uerr))
		}
		return nil, err
	}
	return &Delta{
		Added:   sortedTriples(a.added),
		Removed: sortedTriples(a.removed),
	}, nil
}

// run applies the request's operations in order and commits them.
func (a *applier) run(ctx context.Context, u *sparql.Update) error {
	for _, op := range u.Ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		switch op := op.(type) {
		case *sparql.InsertData:
			err = a.insertGround(op.Triples)
		case *sparql.DeleteData:
			err = a.deleteGround(op.Triples)
		case *sparql.Modify:
			err = a.modify(ctx, u, op)
		default:
			err = fmt.Errorf("update: unknown operation %T", op)
		}
		if err != nil {
			return err
		}
	}
	return a.be.Flush()
}

// undo restores every triple the request touched to its presence before
// the request, through the same Insert/Delete/Flush a request uses.
// Both are no-ops on a triple already in the wanted state, so it does
// not matter how much of the tracked delta a failed disk Flush (which
// drops its staging) had already thrown away.
func (a *applier) undo() error {
	for t := range a.added {
		if _, err := a.be.Delete(t); err != nil {
			return err
		}
	}
	for t := range a.removed {
		if _, err := a.be.Insert(t); err != nil {
			return err
		}
	}
	return a.be.Flush()
}

// ApplyText parses and applies an update request string.
func ApplyText(ctx context.Context, be store.Backend, text string) (*Delta, error) {
	u, err := sparql.ParseUpdate(text)
	if err != nil {
		return nil, err
	}
	return Apply(ctx, be, u)
}

func (a *applier) insert(t rdf.Triple) error {
	ok, err := a.be.Insert(t)
	if err != nil || !ok {
		return err
	}
	if a.removed[t] {
		delete(a.removed, t)
	} else {
		a.added[t] = true
	}
	return nil
}

func (a *applier) delete(t rdf.Triple) error {
	ok, err := a.be.Delete(t)
	if err != nil || !ok {
		return err
	}
	if a.added[t] {
		delete(a.added, t)
	} else {
		a.removed[t] = true
	}
	return nil
}

func (a *applier) insertGround(tmpl []sparql.TriplePattern) error {
	for _, tp := range tmpl {
		t, ok := groundTriple(tp)
		if !ok {
			continue
		}
		if err := a.insert(t); err != nil {
			return err
		}
	}
	return nil
}

func (a *applier) deleteGround(tmpl []sparql.TriplePattern) error {
	for _, tp := range tmpl {
		t, ok := groundTriple(tp)
		if !ok {
			continue
		}
		if err := a.delete(t); err != nil {
			return err
		}
	}
	return nil
}

// modify runs one DELETE/INSERT ... WHERE operation: bind the WHERE
// pattern through the engine, materialize the solution sequence (both
// templates must see the pre-operation state), then apply all deletes
// followed by all inserts.
func (a *applier) modify(ctx context.Context, u *sparql.Update, op *sparql.Modify) error {
	// the WHERE must see what the previous operations staged
	if err := a.be.Flush(); err != nil {
		return err
	}
	q := &sparql.Query{
		Form:     sparql.FormSelect,
		Star:     true,
		Prefixes: u.Prefixes,
		Where:    op.Where,
		Limit:    -1,
	}
	rows, err := q.Stream(ctx, a.be)
	if err != nil {
		return err
	}
	var solutions []sparql.Binding
	for b := range rows.All() {
		solutions = append(solutions, b)
	}
	if err := rows.Err(); err != nil {
		return err
	}
	for _, b := range solutions {
		for _, tp := range op.Delete {
			if t, ok := instantiate(tp, b, nil); ok {
				if err := a.delete(t); err != nil {
					return err
				}
			}
		}
	}
	// Blank nodes in an INSERT template denote fresh nodes per solution.
	for i, b := range solutions {
		bnodes := map[string]rdf.Term{}
		fresh := func(label string) rdf.Term {
			t, ok := bnodes[label]
			if !ok {
				t = rdf.NewBlank(fmt.Sprintf("u%d_%s", i, label))
				bnodes[label] = t
			}
			return t
		}
		for _, tp := range op.Insert {
			if t, ok := instantiate(tp, b, fresh); ok {
				if err := a.insert(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// groundTriple converts a variable-free template triple, dropping
// position-invalid ones (literal subject or non-IRI predicate) the same
// way instantiation does.
func groundTriple(tp sparql.TriplePattern) (rdf.Triple, bool) {
	t := rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term}
	return t, validTriple(t)
}

// instantiate substitutes a solution's bindings into a template triple.
// ok is false when a template variable is unbound in this solution or
// the substituted triple is not a valid RDF triple — per SPARQL 1.1
// Update, such instantiations are skipped, not errors. fresh, when
// non-nil, remaps blank-node labels (INSERT templates).
func instantiate(tp sparql.TriplePattern, b sparql.Binding, fresh func(string) rdf.Term) (rdf.Triple, bool) {
	resolve := func(n sparql.NodePattern) (rdf.Term, bool) {
		if n.IsVar() {
			t, ok := b[n.Var]
			return t, ok && !t.IsZero()
		}
		if fresh != nil && n.Term.IsBlank() {
			return fresh(n.Term.Value), true
		}
		return n.Term, true
	}
	var t rdf.Triple
	var ok bool
	if t.S, ok = resolve(tp.S); !ok {
		return t, false
	}
	if t.P, ok = resolve(tp.P); !ok {
		return t, false
	}
	if t.O, ok = resolve(tp.O); !ok {
		return t, false
	}
	return t, validTriple(t)
}

// validTriple enforces RDF positional rules: subjects are IRIs or blank
// nodes, predicates are IRIs.
func validTriple(t rdf.Triple) bool {
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		return false
	}
	if t.S.IsLiteral() || !t.P.IsIRI() {
		return false
	}
	return true
}

func sortedTriples(set map[rdf.Triple]bool) []rdf.Triple {
	if len(set) == 0 {
		return nil
	}
	out := make([]rdf.Triple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].S.Compare(out[j].S); c != 0 {
			return c < 0
		}
		if c := out[i].P.Compare(out[j].P); c != 0 {
			return c < 0
		}
		return out[i].O.Compare(out[j].O) < 0
	})
	return out
}
