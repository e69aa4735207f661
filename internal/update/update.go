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
	"maps"
	"slices"

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

// applier tracks the net triple delta while ops execute, and mints the
// request's blank nodes.
type applier struct {
	be      store.Backend
	added   map[rdf.Triple]bool
	removed map[rdf.Triple]bool

	// Minting (see fresh): the current solution's nodes by template
	// label, the next label number and the stride a collision moves it
	// by, and a view of committed state taken at the first mint.
	bnodes  map[string]rdf.Term
	next    int
	step    int
	rd      store.ReaderAPI
	mintErr error
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
		bnodes:  make(map[string]rdf.Term),
		step:    1,
	}
	defer func() {
		if rd, ok := a.rd.(interface{ Release() }); ok {
			rd.Release() // the minting view
		}
	}()
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
			err = a.instantiate(sparql.NewTemplate(op.Triples, nil), nil, 1, a.insert, a.fresh)
		case *sparql.DeleteData:
			err = a.instantiate(sparql.NewTemplate(op.Triples, nil), nil, 1, a.delete, nil)
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
	// the solutions, len(rows.Vars) terms each, end to end
	var slab []rdf.Term
	n := 0
	for row := range rows.Terms() {
		slab = append(slab, row...)
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if err := a.instantiate(sparql.NewTemplate(op.Delete, rows.Vars), slab, n, a.delete, nil); err != nil {
		return err
	}
	return a.instantiate(sparql.NewTemplate(op.Insert, rows.Vars), slab, n, a.insert, a.fresh)
}

// instantiate applies tmpl to each of the n solutions laid end to end in
// slab (none for a DATA block: the zero-variable case, one empty
// solution), handing every triple it yields to apply — a.insert, with
// a.fresh minting an INSERT template's blank nodes, or a.delete.
func (a *applier) instantiate(tmpl sparql.Template, slab []rdf.Term, n int, apply func(rdf.Triple) error, fresh func(string) rdf.Term) error {
	w := len(slab) / max(n, 1)
	for i := 0; i < n; i++ {
		clear(a.bnodes)
		if err := tmpl.Instantiate(slab[i*w:(i+1)*w], fresh, apply); err != nil {
			return err
		}
		if a.mintErr != nil {
			return a.mintErr
		}
	}
	return nil
}

// fresh returns the node a template's blank node label denotes in the
// current solution, minted on first use as one no triple of the store
// carries (SPARQL 1.1 Update §3.1.1), across requests too. The label
// number only grows within a request, and any other blank node a request
// writes was bound by a WHERE, so carried sees it. A collision moves the
// number on by a doubling stride. Minting is deterministic given the
// committed state and the request, so the tiers and a replay agree.
func (a *applier) fresh(label string) rdf.Term {
	if t, ok := a.bnodes[label]; ok {
		return t
	}
	for {
		t := rdf.NewBlank(fmt.Sprintf("u%d_%s", a.next, label))
		if !a.carried(t) {
			a.next++
			a.bnodes[label] = t
			return t
		}
		a.next += a.step
		a.step *= 2
	}
}

// carried reports whether a triple of the committed state holds t, a
// blank node, as its subject or object.
func (a *applier) carried(t rdf.Term) bool {
	if a.rd == nil {
		a.rd = a.be.Snapshot()
	}
	id := a.rd.Lookup(t)
	if id == store.NoID || a.mintErr != nil {
		return false
	}
	hit := false
	for _, pat := range [2]store.IDPattern{{S: id}, {O: id}} {
		if err := a.rd.Runs(pat, func(store.Run) bool { hit = true; return false }); err != nil {
			a.mintErr = err
		}
	}
	return hit
}

func sortedTriples(set map[rdf.Triple]bool) []rdf.Triple {
	if len(set) == 0 {
		return nil
	}
	out := slices.Collect(maps.Keys(set))
	slices.SortFunc(out, rdf.Triple.Compare)
	return out
}
