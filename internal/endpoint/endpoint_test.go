package endpoint

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

func testStore(t testing.TB) *store.Store {
	t.Helper()
	g, err := turtle.Parse(`
@prefix ex: <http://ex/> .
ex:a a ex:C ; ex:p ex:b .
ex:b a ex:C .
ex:c a ex:D .
`)
	if err != nil {
		t.Fatal(err)
	}
	return store.FromGraph(g)
}

func TestHandlerGET(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s a <http://ex/C> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestHandlerPOSTViaClient(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	res, err := c.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://ex/C> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestHandlerAskViaClient(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	res, err := c.Query(context.Background(), `ASK { <http://ex/a> <http://ex/p> <http://ex/b> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask || !res.Boolean {
		t.Fatalf("res = %+v", res)
	}
}

func TestHandlerBadQuery(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	if _, err := c.Query(context.Background(), `GARBAGE`); err == nil {
		t.Fatal("bad query should error")
	}
}

func TestHandlerMissingQuery(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestHandlerRejectsUnanswerableGroupedShapes: SELECT * beside GROUP BY
// and an aggregate in ORDER BY used to come back 200 with a wrong answer;
// the parser refuses both, so the protocol handler (sparqld's) says 400
// and names the reason.
func TestHandlerRejectsUnanswerableGroupedShapes(t *testing.T) {
	srv := Serve(testStore(t), nil)
	defer srv.Close()
	for query, reason := range map[string]string{
		`SELECT * WHERE { ?s a ?c } GROUP BY ?c`:                                          "SELECT * is not legal with GROUP BY",
		`SELECT ?c (COUNT(*) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY ASC(COUNT(*))`: "aggregate in ORDER BY",
	} {
		resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(query))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), reason) {
			t.Errorf("%s: status %d, body %q; want 400 naming %q", query, resp.StatusCode, body, reason)
		}
	}
}

func TestQuirksNoAggregates(t *testing.T) {
	st := testStore(t)
	if _, err := Evaluate(st, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`, ProfileNoAgg); err == nil {
		t.Fatal("aggregate query should be rejected")
	}
	if _, err := Evaluate(st, `SELECT ?s WHERE { ?s ?p ?o }`, ProfileNoAgg); err != nil {
		t.Fatalf("plain query rejected: %v", err)
	}
}

func TestQuirksNoGroupBy(t *testing.T) {
	st := testStore(t)
	q := `SELECT ?c WHERE { ?s a ?c } GROUP BY ?c`
	if _, err := Evaluate(st, q, ProfileNoAgg); err == nil {
		t.Fatal("GROUP BY should be rejected")
	}
}

func TestQuirksNoOptional(t *testing.T) {
	st := testStore(t)
	q := `SELECT ?s WHERE { ?s a <http://ex/C> OPTIONAL { ?s <http://ex/p> ?o } }`
	if _, err := Evaluate(st, q, ProfileLegacy); err == nil {
		t.Fatal("OPTIONAL should be rejected by legacy profile")
	}
	if _, err := Evaluate(st, q, ProfileFull); err != nil {
		t.Fatalf("full profile rejected OPTIONAL: %v", err)
	}
}

func TestQuirksMaxRows(t *testing.T) {
	st := store.New()
	for i := 0; i < 50; i++ {
		st.AddSPO(rdf.NewIRI("http://ex/s"+string(rune('a'+i%26))+string(rune('a'+i/26))), rdf.NewIRI("http://ex/p"), rdf.NewInteger(int64(i)))
	}
	capped := &Quirks{Name: "tiny", MaxRows: 10}
	res, err := Evaluate(st, `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`, capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (silent truncation)", len(res.Rows))
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	a1 := NewAvailability(7, 0.3)
	a2 := NewAvailability(7, 0.3)
	for d := 0; d < 100; d++ {
		if a1.UpOn(d) != a2.UpOn(d) {
			t.Fatalf("schedules diverge at day %d", d)
		}
	}
}

func TestAvailabilityOutageLengths(t *testing.T) {
	a := NewAvailability(42, 0.2)
	// outages last at most 2 days: no 3 consecutive down days
	run := 0
	for d := 0; d < 365; d++ {
		if !a.UpOn(d) {
			run++
			if run > 2 {
				t.Fatalf("outage longer than 2 days ending at day %d", d)
			}
		} else {
			run = 0
		}
	}
}

func TestAvailabilityAlwaysUpWhenZeroProb(t *testing.T) {
	a := NewAvailability(1, 0)
	for d := 0; d < 50; d++ {
		if !a.UpOn(d) {
			t.Fatalf("day %d down with prob 0", d)
		}
	}
}

func TestAvailabilityMixedUptime(t *testing.T) {
	a := NewAvailability(9, 0.25)
	up := 0
	for d := 0; d < 1000; d++ {
		if a.UpOn(d) {
			up++
		}
	}
	frac := float64(up) / 1000
	if frac < 0.4 || frac > 0.85 {
		t.Fatalf("uptime fraction = %.2f, outside sanity band", frac)
	}
}

func TestRemoteQueryAndStats(t *testing.T) {
	r := NewRemote("test", "sim://test", testStore(t), nil, nil, nil)
	res, err := r.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://ex/C> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	q, v := r.Stats()
	if q != 1 || v <= 0 {
		t.Fatalf("stats = %d, %v", q, v)
	}
}

func TestRemoteUnavailable(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	// find a seed/day where the endpoint is down
	avail := NewAvailability(3, 0.5)
	r := NewRemote("flaky", "sim://flaky", testStore(t), nil, avail, ck)
	sawDown, sawUp := false, false
	for d := 0; d < 60 && (!sawDown || !sawUp); d++ {
		_, err := r.Query(context.Background(), `ASK { ?s ?p ?o }`)
		if errors.Is(err, ErrUnavailable) {
			sawDown = true
		} else if err == nil {
			sawUp = true
		} else {
			t.Fatal(err)
		}
		ck.AdvanceDays(1)
	}
	if !sawDown || !sawUp {
		t.Fatalf("expected both up and down days: down=%v up=%v", sawDown, sawUp)
	}
}

func TestDayIndex(t *testing.T) {
	if DayIndex(clock.Epoch) != 0 {
		t.Fatal("epoch should be day 0")
	}
	if DayIndex(clock.Epoch.Add(49*time.Hour)) != 2 {
		t.Fatal("49h should be day 2")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{BaseLatency: 100 * time.Millisecond, PerRow: time.Millisecond}
	if got := c.Cost(50); got != 150*time.Millisecond {
		t.Fatalf("Cost = %v", got)
	}
}

func TestLocalClient(t *testing.T) {
	c := LocalClient{Store: testStore(t)}
	res, err := c.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://ex/D> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestClientRetriesOn500(t *testing.T) {
	fails := 2
	srv := ServeFlaky(testStore(t), &fails)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retries = 3
	res, err := c.Query(context.Background(), `ASK { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Boolean {
		t.Fatal("ASK should be true")
	}
}

func TestTruncateHelper(t *testing.T) {
	if truncate("hello", 10) != "hello" {
		t.Fatal("short string should be unchanged")
	}
	if got := truncate(strings.Repeat("x", 300), 5); got != "xxxxx…" {
		t.Fatalf("truncate = %q", got)
	}
}
