package extraction

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/synth"
)

// cancelAfterRows wraps a client and cancels the run's context after n
// rows have crossed the simulated wire — a scheduler Stop or client
// disconnect landing in the middle of an enumeration page.
type cancelAfterRows struct {
	c      endpoint.Client
	cancel context.CancelFunc
	left   int
}

func (cc *cancelAfterRows) Query(ctx context.Context, q string) (*sparql.Result, error) {
	rs, err := cc.Stream(ctx, q)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func (cc *cancelAfterRows) Stream(ctx context.Context, q string) (*sparql.RowSeq, error) {
	rs, err := endpoint.Stream(ctx, cc.c, q)
	if err != nil {
		return nil, err
	}
	return rs.Tap(func([]rdf.Term) {
		cc.left--
		if cc.left == 0 {
			cc.cancel()
		}
	}), nil
}

// TestExtractAbortsMidPageOnCancel: once the context dies, extraction
// must stop inside the page it is consuming — returning the context's
// error, not a strategies-failed error and not a (partial) index.
func TestExtractAbortsMidPageOnCancel(t *testing.T) {
	st := synth.Generate(synth.Spec{Name: "cancelx", Classes: 5, Instances: 300, ObjectProps: 6, DataProps: 4, LinkFactor: 1, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// NoAgg forces the stream-heavy enumeration strategy; the wrapper
	// kills the context 40 rows into it, far below any page boundary
	// (PageSize is 1000)
	c := &cancelAfterRows{
		c:      endpoint.NewRemote("x", "x", st, endpoint.ProfileNoAgg, nil, nil),
		cancel: cancel,
		left:   40,
	}
	ix, err := New().Extract(ctx, c, "sim://cancel", time.Now())
	if ix != nil {
		t.Fatalf("canceled extraction returned an index: %+v", ix)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cc := c.left; cc > 0 {
		t.Fatalf("extraction ended after %d of 40 rows — cancel never fired", 40-cc)
	}
}

// TestExtractDeadline: a context deadline behaves like a cancel.
func TestExtractDeadline(t *testing.T) {
	st := synth.Generate(synth.Spec{Name: "deadline", Classes: 3, Instances: 50, ObjectProps: 4, DataProps: 2, LinkFactor: 1, Seed: 10})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New().Extract(ctx, endpoint.LocalClient{Store: st}, "sim://deadline", time.Now())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamRowsAllocationsConstant: streamRows hands fn the cells of a
// row the stream reuses, so a page of 500 rows costs the allocations of
// a page of 50 — the stream's and the query's own, none per row.
func TestStreamRowsAllocationsConstant(t *testing.T) {
	st := synth.Generate(synth.Spec{
		Name: "allocs", Classes: 8, Instances: 900, ObjectProps: 10,
		DataProps: 6, LinkFactor: 2, CommunitySeeds: 2, Seed: 42,
	})
	e := New()
	c := endpoint.LocalClient{Store: st}
	allocs := func(n int) float64 {
		q := fmt.Sprintf(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT %d`, n)
		rows := 0
		a := testing.AllocsPerRun(20, func() {
			rows = 0
			if err := e.streamRows(context.Background(), c, q, []string{"s", "p", "o"}, func([]rdf.Term) { rows++ }); err != nil {
				t.Fatal(err)
			}
		})
		if rows != n {
			t.Fatalf("LIMIT %d: %d rows", n, rows)
		}
		return a
	}
	small, large := allocs(50), allocs(500)
	t.Logf("allocations per stream: %v at LIMIT 50, %v at LIMIT 500", small, large)
	if large != small {
		t.Fatalf("allocations: %v at LIMIT 50, %v at LIMIT 500; want the same", small, large)
	}
}
