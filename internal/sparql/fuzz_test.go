package sparql_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sparql"
	"repro/internal/sparql/reference"
)

// FuzzQuery: Parse never panics on any input, and a query that parses
// runs without panicking — to completion or to its one-second deadline —
// on the executor and on the reference evaluator over the fixture store.
// The corpus is seeded with the conformance suite's query files.
//
// The reference evaluator takes no context and materializes every
// intermediate solution set, so it only runs on inputs the executor
// finished quickly: the executor visits the same intermediate rows, which
// makes its wall time a bound on what the reference will allocate.
func FuzzQuery(f *testing.F) {
	seeds, err := filepath.Glob("../testsuite/testdata/queries/*.rq")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed queries: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	st := diffStore(f)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := sparql.Parse(text)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		t0 := time.Now()
		rs, err := q.Stream(ctx, st)
		if err == nil {
			_, err = rs.Collect()
		}
		if errors.Is(err, context.DeadlineExceeded) || time.Since(t0) > 20*time.Millisecond {
			return
		}
		// evaluation errors are legitimate; the two must agree on having one
		if _, rerr := reference.Exec(q, st); (rerr == nil) != (err == nil) {
			t.Fatalf("errors disagree on %q: executor=%v reference=%v", text, err, rerr)
		}
	})
}

// TestParseBoundsNesting: each of the parser's three recursion cycles —
// group patterns, unary/bracketed expressions, anonymous blank nodes —
// rejects input nested past maxNesting instead of recursing until the
// goroutine stack overflows (a fatal error, not a panic: before the
// bound, two million levels of "{" — a 4 MB query — killed the process),
// and still accepts and runs nesting within the bound.
func TestParseBoundsNesting(t *testing.T) {
	shapes := map[string]func(n int) string{
		"groups": func(n int) string {
			return "SELECT * WHERE " + strings.Repeat("{", n) + " ?s ?p ?o " + strings.Repeat("}", n)
		},
		"optionals": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o " + strings.Repeat("OPTIONAL { ?s ?p ?o ", n) + strings.Repeat("}", n) + "}"
		},
		"parens": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ") }"
		},
		"nots": func(n int) string {
			return "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("!", n) + "true) }"
		},
		"bnodes": func(n int) string {
			return "SELECT * WHERE { ?s ?p " + strings.Repeat("[ ?p ", n) + "?o" + strings.Repeat(" ]", n) + " }"
		},
	}
	st := diffStore(t)
	for name, shape := range shapes {
		if _, err := sparql.Parse(shape(4 * sparql.MaxNesting)); err == nil || !strings.Contains(err.Error(), "nesting") {
			t.Errorf("%s: %d levels: err = %v, want the nesting bound", name, 4*sparql.MaxNesting, err)
		}
		q, err := sparql.Parse(shape(sparql.MaxNesting / 2))
		if err != nil {
			t.Errorf("%s: %d levels rejected: %v", name, sparql.MaxNesting/2, err)
			continue
		}
		if _, err := q.Exec(st); err != nil {
			t.Errorf("%s: exec: %v", name, err)
		}
		if _, err := reference.Exec(q, st); err != nil {
			t.Errorf("%s: reference: %v", name, err)
		}
	}
}
