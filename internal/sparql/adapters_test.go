package sparql_test

// RowSeq adapter error paths: a mid-stream producer failure must stay
// visible through every adapter (Collect, Limit, Tap) and never be
// laundered into a clean-looking short result, and Close must be safe
// to call twice at any point in an adapter chain. Then the row-lifetime
// contract of the two ways to range.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/synth"
)

var errMidStream = errors.New("producer failed mid-stream")

// failingSeq yields ok rows and then fails.
func failingSeq(ok int) *sparql.RowSeq {
	var streamErr error
	seq := func(yield func([]rdf.Term) bool) {
		row := make([]rdf.Term, 1)
		for i := 0; i < ok; i++ {
			if !yield(row) {
				return
			}
		}
		streamErr = errMidStream
	}
	return sparql.NewRowSeq([]string{"x"}, seq, &streamErr)
}

func TestCollectPropagatesMidStreamError(t *testing.T) {
	res, err := failingSeq(3).Collect()
	if !errors.Is(err, errMidStream) {
		t.Fatalf("Collect err = %v, want errMidStream", err)
	}
	if res != nil {
		t.Fatalf("Collect returned a result (%d rows) alongside the error", len(res.Rows))
	}
}

func TestLimitPropagatesMidStreamError(t *testing.T) {
	// failure before the cap: the limited stream must report it
	rs := failingSeq(3).Limit(10)
	n := 0
	for range rs.All() {
		n++
	}
	if n != 3 {
		t.Fatalf("rows before failure = %d, want 3", n)
	}
	if !errors.Is(rs.Err(), errMidStream) {
		t.Fatalf("Limit Err = %v, want errMidStream", rs.Err())
	}

	// cap before the failure: the limited stream ends cleanly
	rs = failingSeq(3).Limit(2)
	n = 0
	for range rs.All() {
		n++
	}
	if n != 2 || rs.Err() != nil {
		t.Fatalf("rows = %d, err = %v; want 2 rows, nil error", n, rs.Err())
	}
}

func TestTapPropagatesMidStreamError(t *testing.T) {
	tapped := 0
	rs := failingSeq(3).Tap(func([]rdf.Term) { tapped++ })
	for range rs.All() {
	}
	if tapped != 3 {
		t.Fatalf("tapped %d rows, want 3", tapped)
	}
	if !errors.Is(rs.Err(), errMidStream) {
		t.Fatalf("Tap Err = %v, want errMidStream", rs.Err())
	}
}

func TestAdapterChainPropagatesMidStreamError(t *testing.T) {
	// the full chain: failure travels Tap → Limit → Collect
	rs := failingSeq(5).Tap(func([]rdf.Term) {}).Limit(10)
	if _, err := rs.Collect(); !errors.Is(err, errMidStream) {
		t.Fatalf("chained Collect err = %v, want errMidStream", err)
	}
}

// TestProjectReheadsByName: Project places each cell under its own
// variable whatever order the producer heads its rows in, leaves a
// variable the head lacks unbound, and keeps the producer's error.
func TestProjectReheadsByName(t *testing.T) {
	a, b := rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b")
	var streamErr error
	rs := sparql.NewRowSeq([]string{"y", "x"}, func(yield func([]rdf.Term) bool) {
		if yield([]rdf.Term{a, b}) {
			streamErr = errMidStream
		}
	}, &streamErr).Project([]string{"x", "z", "y"})
	var rows [][]rdf.Term
	for row := range rs.Terms() {
		rows = append(rows, slices.Clone(row))
	}
	if fmt.Sprint(rs.Vars) != "[x z y]" || len(rows) != 1 || rows[0][0] != b || !rows[0][1].IsZero() || rows[0][2] != a {
		t.Fatalf("projected head %v, rows %v; want [x z y] and one row [b, unbound, a]", rs.Vars, rows)
	}
	if !errors.Is(rs.Err(), errMidStream) {
		t.Fatalf("Project Err = %v, want errMidStream", rs.Err())
	}
}

// TestAdapterDoubleCloseSafe: Close twice, at several points in the
// consumption — before any range, and inside a range's loop body after
// some rows — for each adapter: no panic, no further rows, and the
// producer's OnClose fires exactly once.
func TestAdapterDoubleCloseSafe(t *testing.T) {
	shapes := map[string]func(*sparql.RowSeq) *sparql.RowSeq{
		"plain": func(rs *sparql.RowSeq) *sparql.RowSeq { return rs },
		"limit": func(rs *sparql.RowSeq) *sparql.RowSeq { return rs.Limit(5) },
		"tap":   func(rs *sparql.RowSeq) *sparql.RowSeq { return rs.Tap(func([]rdf.Term) {}) },
		"project": func(rs *sparql.RowSeq) *sparql.RowSeq {
			return rs.Project([]string{"y", "x"})
		},
		"chain": func(rs *sparql.RowSeq) *sparql.RowSeq {
			return rs.Tap(func([]rdf.Term) {}).Limit(5)
		},
	}
	for name, wrap := range shapes {
		for _, pulls := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/pulls=%d", name, pulls), func(t *testing.T) {
				inner := failingSeq(10)
				closed := 0
				inner.OnClose(func() { closed++ })
				rs := wrap(inner)
				if pulls > 0 {
					n := 0
					for range rs.Terms() {
						if n++; n == pulls {
							rs.Close()
						}
					}
					if n != pulls {
						t.Fatalf("took %d rows, want %d then none after the Close", n, pulls)
					}
				}
				rs.Close()
				rs.Close()
				for range rs.Terms() {
					t.Fatal("a range after Close yielded a row")
				}
				if closed != 1 {
					t.Fatalf("producer OnClose ran %d times, want 1", closed)
				}
			})
		}
	}
}

// TestCollectAfterCloseIsEmpty: a closed stream collects to an empty
// result, not a hang or panic.
func TestCollectAfterCloseIsEmpty(t *testing.T) {
	rs := failingSeq(10)
	rs.Close()
	res, err := rs.Collect()
	if err != nil {
		t.Fatalf("Collect after Close err = %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("Collect after Close returned %d rows", len(res.Rows))
	}
}

// --- row lifetime: the executor fills one positional buffer per run ---

const lifetimeQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

func lifetimeStore() *store.Store {
	return synth.Generate(synth.Spec{Name: "lifetime", Classes: 4, Instances: 60, ObjectProps: 4, DataProps: 3, LinkFactor: 2, Seed: 5})
}

// TestRetainedBindingsSurviveTheDrain: a Binding from All/Collect is the
// consumer's to keep, although the positional row it was built from
// (Terms) is overwritten by the next row — so a consumer that keeps
// positional rows copies them, and the copies are the same rows.
func TestRetainedBindingsSurviveTheDrain(t *testing.T) {
	st := lifetimeStore()
	want, err := sparql.Exec(st, lifetimeQuery)
	if err != nil || len(want.Rows) < 100 {
		t.Fatalf("Exec: %d rows, err %v", len(want.Rows), err)
	}
	key := func(b sparql.Binding) string { return fmt.Sprint(b["s"], b["p"], b["o"]) }
	check := func(how string, kept []sparql.Binding, atPull []string) {
		t.Helper()
		if len(kept) != len(want.Rows) {
			t.Fatalf("%s: streamed %d rows, Exec has %d", how, len(kept), len(want.Rows))
		}
		for i, b := range kept {
			if key(b) != atPull[i] || key(b) != key(want.Rows[i]) {
				t.Fatalf("%s: row %d changed after the drain: now %s, at pull %s, Exec %s", how, i, key(b), atPull[i], key(want.Rows[i]))
			}
		}
	}

	// positional: the producer refills one buffer for every row of the
	// range, so the consumer keeps copies
	rs, err := sparql.StreamExec(context.Background(), st, lifetimeQuery)
	if err != nil {
		t.Fatal(err)
	}
	var kept []sparql.Binding
	var atPull []string
	for row := range rs.Terms() {
		copied := append([]rdf.Term(nil), row...)
		kept, atPull = append(kept, sparql.Binding{"s": copied[0], "p": copied[1], "o": copied[2]}), append(atPull, fmt.Sprint(row[0], row[1], row[2]))
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	check("positional", kept, atPull)

	// Bindings: each is built fresh from the buffer
	rs, _ = sparql.StreamExec(context.Background(), st, lifetimeQuery)
	kept, atPull = nil, nil
	for b := range rs.All() {
		kept, atPull = append(kept, b), append(atPull, key(b))
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	check("ranged", kept, atPull)

	rs, _ = sparql.StreamExec(context.Background(), st, lifetimeQuery)
	res, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Rows {
		if key(b) != key(want.Rows[i]) {
			t.Fatalf("Collect row %d = %s, Exec %s", i, key(b), key(want.Rows[i]))
		}
	}
}

// TestAdaptersCountRowsEitherWay: Limit, Tap and the registry's row
// counter wrap the one sequence, so they see the same rows however the
// consumer ranges — as positional terms or as Bindings — and the stream
// ends once, cleanly.
func TestAdaptersCountRowsEitherWay(t *testing.T) {
	st := lifetimeStore()
	for _, mode := range []struct {
		name  string
		drain func(*sparql.RowSeq) int
	}{
		{"Terms", func(rs *sparql.RowSeq) (n int) {
			for range rs.Terms() {
				n++
			}
			return n
		}},
		{"All", func(rs *sparql.RowSeq) (n int) {
			for range rs.All() {
				n++
			}
			return n
		}},
	} {
		reg := obs.NewRegistry()
		rs, err := sparql.StreamExec(obs.WithRegistry(context.Background(), reg), st, lifetimeQuery)
		if err != nil {
			t.Fatal(err)
		}
		tapped, closed := 0, 0
		rs.OnClose(func() { closed++ })
		rs = rs.Tap(func([]rdf.Term) { tapped++ }).Limit(17)
		got := mode.drain(rs)
		rs.Close()
		counted := reg.CounterVec("hbold_query_rows_total", "", "kind").With("select").Value()
		if got != 17 || tapped != 17 || counted != 17 || closed != 1 || rs.Err() != nil {
			t.Fatalf("%s: took %d rows, tapped %d, registry counted %v, OnClose ran %d times, Err %v; want 17 rows each, one close, no error",
				mode.name, got, tapped, counted, closed, rs.Err())
		}
	}
}
