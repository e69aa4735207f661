package endpoint

// Cost-accounting regressions for the simulated remote: virtual time
// must charge the base latency once per request plus the per-row
// transfer cost for rows *actually delivered* — a pull canceled
// mid-stream, or a stream abandoned early, charges only what crossed
// the simulated wire.

import (
	"context"
	"errors"
	"testing"
	"time"
)

const costQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`

func costRemote() *Remote {
	r := NewRemote("r", "http://r/sparql", streamStore(), nil, nil, nil)
	r.Cost = CostModel{BaseLatency: time.Millisecond, PerRow: time.Microsecond}
	return r
}

func wantVirtual(t *testing.T, r *Remote, rows int) {
	t.Helper()
	queries, virtual := r.Stats()
	want := time.Millisecond + time.Duration(rows)*time.Microsecond
	if queries != 1 || virtual != want {
		t.Fatalf("stats = %d queries, %v virtual; want 1 query, %v (%d delivered rows)",
			queries, virtual, rows, want)
	}
}

// TestRemoteCostCanceledMidStream: cancel after k rows; only those k
// rows are charged, not the rows the evaluation would have produced.
func TestRemoteCostCanceledMidStream(t *testing.T) {
	r := costRemote()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs, err := r.Stream(ctx, costQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rows := 0
	for range rs.All() {
		rows++
		if rows == 17 {
			cancel()
		}
	}
	if !errors.Is(rs.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rs.Err())
	}
	if rows != 17 {
		t.Fatalf("delivered %d rows after cancel at 17", rows)
	}
	wantVirtual(t, r, 17)
}

// TestRemoteCostEarlyClose: an abandoned stream charges the delivered
// prefix only.
func TestRemoteCostEarlyClose(t *testing.T) {
	r := costRemote()
	rs, err := r.Stream(context.Background(), costQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rs.Terms() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatal("stream ended early")
	}
	rs.Close()
	wantVirtual(t, r, 5)
}

// TestRemoteCostFullDrainMatchesCostModel: a fully drained stream and
// the CostModel.Cost formula agree, so the two accounting surfaces
// cannot drift.
func TestRemoteCostFullDrainMatchesCostModel(t *testing.T) {
	r := costRemote()
	res, err := r.Query(context.Background(), costQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantVirtual(t, r, len(res.Rows))
	_, virtual := r.Stats()
	if got := r.Cost.Cost(len(res.Rows)); got != virtual {
		t.Fatalf("CostModel.Cost(%d) = %v, accounted %v", len(res.Rows), got, virtual)
	}
}

// TestRemoteCostLimitQuery: a LIMIT query charges the capped row count —
// the limit applies before the simulated wire, like a real endpoint.
func TestRemoteCostLimitQuery(t *testing.T) {
	r := costRemote()
	res, err := r.Query(context.Background(), costQuery+` LIMIT 9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	wantVirtual(t, r, 9)
}

// TestRemoteCostUnavailableChargesNothing: a down endpoint never opened
// a stream, so no virtual time accrues at all.
func TestRemoteCostUnavailableChargesNothing(t *testing.T) {
	r := NewRemote("down", "http://down/sparql", streamStore(), nil, AlwaysDown(), nil)
	r.Cost = CostModel{BaseLatency: time.Millisecond, PerRow: time.Microsecond}
	if _, err := r.Stream(context.Background(), costQuery); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if queries, virtual := r.Stats(); queries != 0 || virtual != 0 {
		t.Fatalf("stats = %d queries, %v virtual; want zero accounting", queries, virtual)
	}
}

// TestRemoteCostTapSurvivesCollectError: a mid-collect cancellation on
// the materialized Query path also charges only the delivered prefix.
func TestRemoteCostMaterializedCancel(t *testing.T) {
	r := costRemote()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, costQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// the request was admitted (base latency) but no row crossed the wire
	wantVirtual(t, r, 0)
}
