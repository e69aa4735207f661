package federation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/synth"
)

// unionAndParts builds the shared differential fixture: one corpus, one
// endpoint holding all of it, and k endpoints holding a partition each.
func unionAndParts(k int) (*store.Store, []*store.Store) {
	union := synth.Generate(synth.Spec{
		Name: "fedtest", Classes: 8, Instances: 900, ObjectProps: 10,
		DataProps: 6, LinkFactor: 2, CommunitySeeds: 2, Seed: 42,
	})
	return union, synth.Partition(union, k)
}

func localSources(parts []*store.Store) []*endpoint.Source {
	out := make([]*endpoint.Source, len(parts))
	for i, p := range parts {
		url := fmt.Sprintf("http://part%d.example.org/sparql", i)
		out[i] = endpoint.NewSource(fmt.Sprintf("part%d", i), url, endpoint.LocalClient{Store: p})
	}
	return out
}

// reversedSources is localSources with every member heading its rows in
// reverse (reversedVarsClient): the merge must place each cell by name.
func reversedSources(parts []*store.Store) []*endpoint.Source {
	out := make([]*endpoint.Source, len(parts))
	for i, p := range parts {
		url := fmt.Sprintf("http://rev%d.example.org/sparql", i)
		out[i] = endpoint.NewSource(fmt.Sprintf("rev%d", i), url, reversedVarsClient{st: p})
	}
	return out
}

// memberSets are the member sets every federation ≡ union differential
// runs over: members heading their rows as the query does, and in
// reverse.
var memberSets = []struct {
	name    string
	sources func([]*store.Store) []*endpoint.Source
}{{"local", localSources}, {"reversed", reversedSources}}

// sortedKeysOf canonicalizes a result for order-insensitive comparison.
func sortedKeysOf(t *testing.T, res *sparql.Result) []string {
	t.Helper()
	rows := res.SortedRows()
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = sparql.BindingKey(r, res.Vars)
	}
	return keys
}

var differentialQueries = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
	`SELECT ?s ?c WHERE { ?s a ?c }`,
	`SELECT DISTINCT ?c WHERE { ?s a ?c }`,
	`SELECT ?s ?o WHERE { ?s a ?c . ?s ?p ?o }`,
	`SELECT ?s WHERE { ?s ?p ?o FILTER isLiteral(?o) }`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o }`,
}

// TestFederatedEqualsUnion is the differential acceptance test: a query
// federated over the partitions yields exactly the union endpoint's
// solution multiset (same rows up to order; identical sets under
// DISTINCT), with 3 and with 8 legs sending into the shared fan-in, over
// each member set.
func TestFederatedEqualsUnion(t *testing.T) {
	for _, k := range []int{3, 8} {
		union, parts := unionAndParts(k)
		single := endpoint.LocalClient{Store: union}
		ctx := context.Background()
		for _, set := range memberSets {
			fed := New(set.sources(parts)...)
			for _, q := range differentialQueries {
				want, err := single.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s: union: %v", q, err)
				}
				got, err := fed.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s, %d legs, %s: federated: %v", set.name, k, q, err)
				}
				wk, gk := sortedKeysOf(t, want), sortedKeysOf(t, got)
				if len(wk) != len(gk) {
					t.Fatalf("%s, %d legs, %s: federated %d rows, union %d rows", set.name, k, q, len(gk), len(wk))
				}
				for i := range wk {
					if wk[i] != gk[i] {
						t.Fatalf("%s, %d legs, %s: row %d differs:\n  fed   %q\n  union %q", set.name, k, q, i, gk[i], wk[i])
					}
				}
			}
		}
	}
}

// TestFederatedStreamIncremental drains the merged stream row by row and
// checks rows arrive from more than one branch (the merge interleaves
// rather than concatenating a materialized fan-out).
func TestFederatedStreamIncremental(t *testing.T) {
	_, parts := unionAndParts(3)
	srcs := localSources(parts)
	fed := New(srcs...)
	reg := obs.NewRegistry()
	fed.Metrics = reg
	rs, err := fed.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	n := 0
	for range rs.All() {
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if n != total {
		t.Fatalf("merged %d rows, partitions hold %d triples", n, total)
	}
	contributing := 0
	for _, src := range srcs {
		rows := stat(reg, "rows_total", src.URL)
		if rows > 0 {
			contributing++
		}
		if q := stat(reg, "queries_total", src.URL); q != 1 {
			t.Fatalf("%s: %v queries, want 1", src.URL, q)
		}
		if rows > 0 && (stat(reg, "first_row_seconds", src.URL) <= 0 || stat(reg, "elapsed_seconds_total", src.URL) <= 0) {
			t.Fatalf("%s: latency not recorded", src.URL)
		}
	}
	if contributing < 2 {
		t.Fatalf("only %d sources contributed rows; fixture too lopsided", contributing)
	}
}

// TestFederatedAsk: ASK is true iff any member holds a matching triple.
func TestFederatedAsk(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	res, err := fed.Query(context.Background(), `ASK { ?s a ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask || !res.Boolean {
		t.Fatalf("ASK = %+v, want true", res)
	}
	res, err = fed.Query(context.Background(), `ASK { ?s <http://nowhere.example.org/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boolean {
		t.Fatal("ASK over absent predicate answered true")
	}
}

// failingClient streams okRows rows of its store, then fails.
type failingClient struct {
	st     *store.Store
	okRows int
	// closed observes downstream teardown: incremented when the failing
	// stream's OnClose runs.
	closed *atomic.Int32
}

var errInjected = errors.New("injected mid-stream failure")

func (f failingClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := f.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func (f failingClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	inner, err := endpoint.LocalClient{Store: f.st}.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	var streamErr error
	n := 0
	seq := func(yield func([]rdf.Term) bool) {
		defer inner.Close()
		for row := range inner.Terms() {
			if n >= f.okRows {
				streamErr = errInjected
				return
			}
			n++
			if !yield(row) {
				return
			}
		}
		streamErr = inner.Err()
	}
	out := sparql.NewRowSeq(inner.Vars, seq, &streamErr)
	if f.closed != nil {
		out.OnClose(func() { f.closed.Add(1) })
	}
	return out, nil
}

// slowClient delays each row, so a fast-failing sibling branch dies
// while this branch still has rows in flight — exercising cancellation
// of healthy branches.
type slowClient struct {
	st    *store.Store
	delay time.Duration
}

func (s slowClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := s.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func (s slowClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	inner, err := endpoint.LocalClient{Store: s.st}.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return inner.Tap(func([]rdf.Term) { time.Sleep(s.delay) }), nil
}

// TestFederatedBranchFailureSurfaces is the mid-stream failure variant:
// one member fails after a few rows; the merged stream reports the error
// through Err() and every other branch is canceled and joined.
func TestFederatedBranchFailureSurfaces(t *testing.T) {
	_, parts := unionAndParts(3)
	var closed atomic.Int32
	sources := []*endpoint.Source{
		endpoint.NewSource("ok0", "http://ok0/sparql", slowClient{st: parts[0], delay: 100 * time.Microsecond}),
		endpoint.NewSource("bad", "http://bad/sparql", failingClient{st: parts[1], okRows: 5, closed: &closed}),
		endpoint.NewSource("ok1", "http://ok1/sparql", slowClient{st: parts[2], delay: 100 * time.Microsecond}),
	}
	fed := New(sources...)
	reg := obs.NewRegistry()
	fed.Metrics = reg
	rs, err := fed.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rs.All() {
		n++
	}
	err = rs.Err()
	if err == nil {
		t.Fatalf("merged stream ended cleanly after %d rows; want injected failure", n)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("Err() = %v, want wrapped errInjected", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error does not name the failing source: %v", err)
	}
	// exhaustion ran OnClose, which joins every branch goroutine; Close
	// again must be safe and the failing stream must have been torn down
	rs.Close()
	if got := closed.Load(); got != 1 {
		t.Fatalf("failing branch closed %d times, want 1", got)
	}
	if n := stat(reg, "errors_total", "http://bad/sparql"); n != 1 {
		t.Fatalf("failing source errors = %v, want 1", n)
	}
}

// TestFederatedConsumerCloseCancelsBranches: abandoning the merged
// stream early tears every leg down (Close returns only after all leg
// goroutines joined — run under -race this also proves no goroutine
// outlives the stream).
func TestFederatedConsumerCloseCancelsBranches(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	rs, err := fed.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range rs.All() {
		if n++; n == 3 {
			rs.Close()
		}
	}
	if n != 3 {
		t.Fatalf("took %d rows, want 3 then none after the Close", n)
	}
	rs.Close() // double-Close must be safe
	for range rs.All() {
		t.Fatal("a range after Close yielded a row")
	}
}

// TestFederatedCallerCancel: canceling the caller's context mid-stream
// surfaces context.Canceled via Err().
func TestFederatedCallerCancel(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs, err := fed.Stream(ctx, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rows := 0
	for range rs.All() {
		rows++
		if rows == 10 {
			cancel()
		}
	}
	if !errors.Is(rs.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", rs.Err())
	}
}

// TestFederatedAskCanceledContext: a dead caller context surfaces as
// the context's error, not as "all sources unavailable".
func TestFederatedAskCanceledContext(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fed.Query(ctx, `ASK { ?s a ?c }`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, endpoint.ErrUnavailable) {
		t.Fatalf("cancellation misreported as unavailability: %v", err)
	}
}

// TestFederatedEarlyCloseRecordsNoSourceErrors: tearing the merge down
// while branches are still opening must not count as source failures.
func TestFederatedEarlyCloseRecordsNoSourceErrors(t *testing.T) {
	_, parts := unionAndParts(3)
	srcs := localSources(parts[:2])
	// one branch that opens slowly, so Close races its open
	srcs = append(srcs, endpoint.NewSource("slowopen", "http://slowopen/sparql",
		slowOpenClient{st: parts[2], delay: 20 * time.Millisecond}))
	fed := New(srcs...)
	reg := obs.NewRegistry()
	fed.Metrics = reg
	rs, err := fed.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	first := false
	for range rs.All() {
		first = true
		break // joins all legs, including the still-opening one
	}
	if !first {
		t.Fatal("no first row")
	}
	rs.Close()
	for _, src := range srcs {
		if n := stat(reg, "errors_total", src.URL); n != 0 {
			t.Fatalf("%s: errors = %v after consumer Close, want 0", src.URL, n)
		}
	}
}

// slowOpenClient delays the stream open, not the rows; canceled, when
// set, counts the opens whose context ended first.
type slowOpenClient struct {
	st       *store.Store
	delay    time.Duration
	canceled *atomic.Int32
}

func (s slowOpenClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	rs, err := s.Stream(ctx, query)
	if err != nil {
		return nil, err
	}
	return rs.Collect()
}

func (s slowOpenClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		if s.canceled != nil {
			s.canceled.Add(1)
		}
		return nil, ctx.Err()
	}
	return endpoint.LocalClient{Store: s.st}.Stream(ctx, query)
}

// countingClient counts how many requests actually reach a source.
type countingClient struct {
	inner endpoint.Client
	calls *atomic.Int32
}

func (c countingClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	c.calls.Add(1)
	return c.inner.Query(ctx, query)
}

func (c countingClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	c.calls.Add(1)
	return endpoint.Stream(ctx, c.inner, query)
}

// indexOf runs real extraction against a store so the pruning test uses
// the same indexes production builds.
func indexOf(t *testing.T, st *store.Store, url string) *extraction.Index {
	t.Helper()
	ix, err := extraction.New().Extract(context.Background(), endpoint.LocalClient{Store: st}, url, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// vocabularyOf answers Client.Vocabulary from a map of extracted indexes;
// a URL without one has no usable index.
func vocabularyOf(indexes map[string]*extraction.Index) func(string) (extraction.Vocabulary, bool) {
	return func(url string) (extraction.Vocabulary, bool) {
		ix, ok := indexes[url]
		if !ok {
			return extraction.Vocabulary{}, false
		}
		return ix.Vocabulary(), true
	}
}

// TestIndexPruneSkipsIrrelevantSource is the source-selection acceptance
// test: under IndexPrune, a source whose extracted index lacks the
// queried predicate/class receives zero requests, while the same query
// under All reaches every source.
func TestIndexPruneSkipsIrrelevantSource(t *testing.T) {
	union, _ := unionAndParts(1)
	parts := synth.PartitionByClass(union, 3)
	indexes := map[string]*extraction.Index{}
	var calls [3]atomic.Int32
	sources := make([]*endpoint.Source, 3)
	for i, p := range parts {
		url := fmt.Sprintf("http://cls%d.example.org/sparql", i)
		indexes[url] = indexOf(t, p, url)
		sources[i] = endpoint.NewSource(fmt.Sprintf("cls%d", i), url,
			countingClient{inner: endpoint.LocalClient{Store: p}, calls: &calls[i]})
	}
	fed := New(sources...)
	fed.Policy = IndexPrune
	fed.Vocabulary = vocabularyOf(indexes)
	reg := obs.NewRegistry()
	fed.Metrics = reg

	// pick a class that lives in exactly one partition
	var homeIdx int
	var classIRI string
	for i, p := range parts {
		for _, cs := range p.Classes() {
			only := true
			for j, q := range parts {
				if j != i && q.Count(store.Pattern{P: rdf.NewIRI(rdf.RDFType), O: cs.Class}) > 0 {
					only = false
					break
				}
			}
			if only && cs.Instances > 0 {
				homeIdx, classIRI = i, cs.Class.Value
				break
			}
		}
		if classIRI != "" {
			break
		}
	}
	if classIRI == "" {
		t.Fatal("fixture has no partition-exclusive class")
	}

	query := fmt.Sprintf(`SELECT ?s WHERE { ?s a <%s> }`, classIRI)
	res, err := fed.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("pruned federation returned no rows for a present class")
	}
	for i := range calls {
		want := int32(0)
		if i == homeIdx {
			want = 1
		}
		if got := calls[i].Load(); got != want {
			t.Fatalf("source %d received %d requests, want %d (home=%d)", i, got, want, homeIdx)
		}
	}
	for i, src := range sources {
		if n := stat(reg, "pruned_total", src.URL); i != homeIdx && n != 1 {
			t.Fatalf("source %d pruned = %v, want 1", i, n)
		}
	}

	// same query under All reaches everyone
	fedAll := New(sources...)
	if _, err := fedAll.Query(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		want := int32(1)
		if i == homeIdx {
			want = 2
		}
		if got := calls[i].Load(); got != want {
			t.Fatalf("under All, source %d total calls = %d, want %d", i, got, want)
		}
	}
}

// TestIndexPruneFallsBackWithoutIndex: a source with no usable index
// (Vocabulary answers ok=false) is never pruned.
func TestIndexPruneFallsBackWithoutIndex(t *testing.T) {
	_, parts := unionAndParts(2)
	var calls [2]atomic.Int32
	sources := make([]*endpoint.Source, 2)
	for i, p := range parts {
		url := fmt.Sprintf("http://noix%d.example.org/sparql", i)
		sources[i] = endpoint.NewSource("", url,
			countingClient{inner: endpoint.LocalClient{Store: p}, calls: &calls[i]})
	}
	fed := New(sources...)
	fed.Policy = IndexPrune
	fed.Vocabulary = vocabularyOf(nil)
	if _, err := fed.Query(context.Background(), `SELECT ?s WHERE { ?s <http://nowhere.example.org/p> ?o }`); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if calls[i].Load() != 1 {
			t.Fatalf("source %d calls = %d, want 1 (fallback to fan-out)", i, calls[i].Load())
		}
	}
}

// TestAllPrunedYieldsEmptyResult: when the indexes prove no source can
// answer, the federated result is empty, and no source is contacted.
func TestAllPrunedYieldsEmptyResult(t *testing.T) {
	_, parts := unionAndParts(2)
	var calls [2]atomic.Int32
	indexes := map[string]*extraction.Index{}
	sources := make([]*endpoint.Source, 2)
	for i, p := range parts {
		url := fmt.Sprintf("http://pruned%d.example.org/sparql", i)
		indexes[url] = indexOf(t, p, url)
		sources[i] = endpoint.NewSource("", url,
			countingClient{inner: endpoint.LocalClient{Store: p}, calls: &calls[i]})
	}
	fed := New(sources...)
	fed.Policy = IndexPrune
	fed.Vocabulary = vocabularyOf(indexes)
	res, err := fed.Query(context.Background(), `SELECT ?s WHERE { ?s <http://nowhere.example.org/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("got %d rows, want 0", len(res.Rows))
	}
	if calls[0].Load()+calls[1].Load() != 0 {
		t.Fatal("pruned sources were still contacted")
	}
}

// TestSkipUnavailableRoutesAround: with SkipUnavailable, a down member
// is skipped and the rest answer; without it, the down member is fatal.
func TestSkipUnavailableRoutesAround(t *testing.T) {
	_, parts := unionAndParts(3)
	mk := func() []*endpoint.Source {
		srcs := localSources(parts[:2])
		down := endpoint.NewRemote("down", "http://down/sparql", parts[2], nil, endpoint.AlwaysDown(), nil)
		srcs = append(srcs, &endpoint.Source{Name: "down", URL: "http://down/sparql", Client: down})
		return srcs
	}
	fed := New(mk()...)
	fed.SkipUnavailable = true
	reg := obs.NewRegistry()
	fed.Metrics = reg
	res, err := fed.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if want := parts[0].Len() + parts[1].Len(); len(res.Rows) != want {
		t.Fatalf("got %d rows, want %d from the two live members", len(res.Rows), want)
	}
	if n := stat(reg, "unavailable_total", "http://down/sparql"); n != 1 {
		t.Fatalf("down source unavailable = %v, want 1", n)
	}

	strict := New(mk()...)
	rs, err := strict.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err == nil {
		// the failure may surface at open or through the stream,
		// depending on which branch opens first
		for range rs.All() {
		}
		err = rs.Err()
		rs.Close()
	}
	if !errors.Is(err, endpoint.ErrUnavailable) {
		t.Fatalf("strict federation err = %v, want ErrUnavailable", err)
	}
}

// TestSourceUpProbeSkipsBeforeFanout: a Source.Up probe returning false
// keeps the query from ever reaching the member's client.
func TestSourceUpProbeSkipsBeforeFanout(t *testing.T) {
	_, parts := unionAndParts(2)
	var calls atomic.Int32
	srcs := localSources(parts[:1])
	srcs = append(srcs, &endpoint.Source{
		Name: "probed", URL: "http://probed/sparql",
		Client: countingClient{inner: endpoint.LocalClient{Store: parts[1]}, calls: &calls},
		Up:     func() bool { return false },
	})
	fed := New(srcs...)
	if _, err := fed.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("down-probed source received %d requests, want 0", calls.Load())
	}
}

// TestFederatedLimitMerged: LIMIT caps the merged stream, not just each
// branch, and satisfying it tears the fan-out down.
func TestFederatedLimitMerged(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	res, err := fed.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(res.Rows))
	}
}

// TestCostOrderedOpensCheapestFirst: cost ordering is deterministic by
// the cost model, checked through the selection order.
func TestCostOrderedOpensCheapestFirst(t *testing.T) {
	_, parts := unionAndParts(3)
	srcs := localSources(parts)
	srcs[0].Cost = endpoint.CostModel{BaseLatency: 300 * time.Millisecond}
	srcs[1].Cost = endpoint.CostModel{BaseLatency: 10 * time.Millisecond}
	srcs[2].Cost = endpoint.CostModel{BaseLatency: 100 * time.Millisecond}
	fed := New(srcs...)
	fed.Policy = CostOrdered
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := fed.selectSources(q, nil)
	if len(sel) != 3 || sel[0] != srcs[1] || sel[1] != srcs[2] || sel[2] != srcs[0] {
		names := make([]string, len(sel))
		for i, s := range sel {
			names[i] = s.Name
		}
		t.Fatalf("selection order = %v, want cheapest first", names)
	}
}

// TestFederatedConcurrentQueries: one federation, many concurrent
// queries — its registry handles are shared state under -race.
func TestFederatedConcurrentQueries(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	fed.Metrics = obs.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fed.Query(context.Background(), `SELECT DISTINCT ?c WHERE { ?s a ?c }`)
			if err != nil || len(res.Rows) == 0 {
				t.Errorf("concurrent query: %d rows, err %v", len(res.Rows), err)
			}
		}()
	}
	wg.Wait()
}

// TestFederationRejectsConstruct and empty-federation errors.
func TestFederationErrors(t *testing.T) {
	if _, err := New().Stream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("empty federation did not error")
	}
	_, parts := unionAndParts(1)
	fed := New(localSources(parts)...)
	if _, err := fed.Stream(context.Background(), `CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("CONSTRUCT did not error")
	}
	if _, err := fed.Stream(context.Background(), `SELECT ?s WHERE {`); err == nil {
		t.Fatal("syntax error did not surface")
	}
	// fanned-out aggregates would present per-partition partials as
	// answers; the federation must refuse, not mislead
	for _, q := range []string{
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`,
	} {
		if _, err := fed.Stream(context.Background(), q); err == nil {
			t.Fatalf("aggregate query was fanned out: %s", q)
		}
	}
}

// TestIndexPruneKeepsUntypedSubjectPredicates is the pruning-soundness
// differential: a predicate that occurs only on *untyped* subjects never
// shows up in any per-class property list, and PartitionByClass routes
// those subjects to partition 0 — exactly the shape that used to make
// IndexPrune drop partition 0 and silently lose its rows. With the
// full-corpus predicate scan, partition 0's index advertises the
// predicate, the other partitions are still pruned, and the federated
// result equals the union endpoint's row-for-row.
func TestIndexPruneKeepsUntypedSubjectPredicates(t *testing.T) {
	union, _ := unionAndParts(1)
	const shadow = "http://ex/shadowProp"
	for i := 0; i < 5; i++ {
		union.Add(rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://ex/untyped%d", i)),
			rdf.NewIRI(shadow),
			rdf.NewLiteral(fmt.Sprintf("v%d", i))))
	}
	parts := synth.PartitionByClass(union, 3)
	indexes := map[string]*extraction.Index{}
	var calls [3]atomic.Int32
	sources := make([]*endpoint.Source, 3)
	for i, p := range parts {
		url := fmt.Sprintf("http://untyped%d.example.org/sparql", i)
		indexes[url] = indexOf(t, p, url)
		sources[i] = endpoint.NewSource(fmt.Sprintf("untyped%d", i), url,
			countingClient{inner: endpoint.LocalClient{Store: p}, calls: &calls[i]})
	}
	fed := New(sources...)
	fed.Policy = IndexPrune
	fed.Vocabulary = vocabularyOf(indexes)
	reg := obs.NewRegistry()
	fed.Metrics = reg

	query := fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <%s> ?v }`, shadow)
	want, err := endpoint.LocalClient{Store: union}.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fed.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	wk, gk := sortedKeysOf(t, want), sortedKeysOf(t, got)
	if len(gk) != len(wk) || len(wk) != 5 {
		t.Fatalf("federated %d rows, union %d rows, want 5 — pruning dropped untyped-subject answers", len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("row %d differs: fed %q union %q", i, gk[i], wk[i])
		}
	}
	// untyped subjects all live in partition 0; the others hold no
	// shadowProp triples and their complete predicate sets prove it
	if got := calls[0].Load(); got != 1 {
		t.Fatalf("home partition received %d requests, want 1", got)
	}
	for i := 1; i < 3; i++ {
		if got := calls[i].Load(); got != 0 {
			t.Fatalf("partition %d received %d requests, want 0 (provably irrelevant)", i, got)
		}
		if n := stat(reg, "pruned_total", sources[i].URL); n != 1 {
			t.Fatalf("partition %d pruned = %v, want 1", i, n)
		}
	}
}

// TestFederatedOrderByEqualsUnion: ORDER BY queries — with and without
// LIMIT — must reproduce the union endpoint's rows *in order*. The LIMIT
// variants are the sharp edge: a completion-order merge returns the
// first N rows to arrive, which is a wrong row set, not just a lost
// ordering; the ordered k-way merge must return the global top-N. It
// runs with 3 and with 8 legs, each with its own channel into the heap,
// over each member set.
func TestFederatedOrderByEqualsUnion(t *testing.T) {
	for _, k := range []int{3, 8} {
		union, parts := unionAndParts(k)
		single := endpoint.LocalClient{Store: union}
		for _, set := range memberSets {
			fed := New(set.sources(parts)...)
			for _, q := range []string{
				`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
				`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 25`,
				`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY DESC(?s) ?p ?o LIMIT 10`,
				`SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY ?c`,
				`SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY DESC(?c) LIMIT 3`,
			} {
				want, err := single.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: union: %v", q, err)
				}
				got, err := fed.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("%s, %d legs, %s: federated: %v", set.name, k, q, err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s, %d legs, %s: federated %d rows, union %d rows", set.name, k, q, len(got.Rows), len(want.Rows))
				}
				// compare in delivered order: the ordered merge must establish
				// the same global order the union endpoint does
				for i := range want.Rows {
					wk := sparql.BindingKey(want.Rows[i], want.Vars)
					gk := sparql.BindingKey(got.Rows[i], want.Vars)
					if wk != gk {
						t.Fatalf("%s, %d legs, %s: row %d out of order:\n  fed   %q\n  union %q", set.name, k, q, i, gk, wk)
					}
				}
			}
		}
	}
}

// TestFederatedOrderByBranchFailure: the ordered merge propagates a
// member's mid-stream failure through Err() like the unordered one.
func TestFederatedOrderByBranchFailure(t *testing.T) {
	_, parts := unionAndParts(3)
	sources := []*endpoint.Source{
		endpoint.NewSource("ok0", "http://ok0/sparql", endpoint.LocalClient{Store: parts[0]}),
		endpoint.NewSource("bad", "http://bad/sparql", failingClient{st: parts[1], okRows: 5}),
		endpoint.NewSource("ok1", "http://ok1/sparql", endpoint.LocalClient{Store: parts[2]}),
	}
	fed := New(sources...)
	rs, err := fed.Stream(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`)
	if err != nil {
		t.Fatal(err)
	}
	for range rs.All() {
	}
	if err := rs.Err(); !errors.Is(err, errInjected) {
		t.Fatalf("ordered merge Err() = %v, want wrapped errInjected", err)
	}
	rs.Close()
}

// TestFederationRejectsOffset: OFFSET fanned out unchanged would make
// every member skip rows independently, dropping answers; it must be
// refused like aggregates, not silently mis-answered.
func TestFederationRejectsOffset(t *testing.T) {
	_, parts := unionAndParts(2)
	fed := New(localSources(parts)...)
	for _, q := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } OFFSET 2`,
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 5 OFFSET 5`,
	} {
		if _, err := fed.Stream(context.Background(), q); err == nil {
			t.Fatalf("OFFSET query was fanned out: %s", q)
		}
	}
}

// TestFederationRejectsNonProjectedOrderBy: the ordered merge compares
// projected rows, so ORDER BY on a variable the SELECT list drops would
// evaluate as unbound on every merged row and silently degrade to
// branch concatenation — a wrong row set under LIMIT. It must be
// refused; projecting the sort variable (or SELECT *) is supported and
// must still match the union endpoint.
func TestFederationRejectsNonProjectedOrderBy(t *testing.T) {
	union, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	if _, err := fed.Stream(context.Background(),
		`SELECT ?s WHERE { ?s a ?c } ORDER BY ?c LIMIT 5`); err == nil {
		t.Fatal("ORDER BY on a non-projected variable was fanned out")
	}
	// SELECT * keeps every variable in the rows: same query shape must
	// work and reproduce the union endpoint's global order
	q := `SELECT * WHERE { ?s a ?c } ORDER BY ?c ?s LIMIT 9`
	want, err := endpoint.LocalClient{Store: union}.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fed.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("federated %d rows, union %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if sparql.BindingKey(got.Rows[i], []string{"c", "s"}) != sparql.BindingKey(want.Rows[i], []string{"c", "s"}) {
			t.Fatalf("row %d out of order under SELECT *", i)
		}
	}
}

// reversedVarsClient answers with head vars in reversed order, modeling
// a remote endpoint that heads its results differently than our engine.
type reversedVarsClient struct{ st *store.Store }

func (r reversedVarsClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	res, err := endpoint.LocalClient{Store: r.st}.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	rev := make([]string, len(res.Vars))
	for i, v := range res.Vars {
		rev[len(rev)-1-i] = v
	}
	res.Vars = rev
	return res, nil
}

// TestFederatedHeadVarsDeterministic: with an explicit SELECT list the
// merged stream's head comes from the parsed query, not from whichever
// branch happens to open first — so a member heading its rows oddly
// cannot make the federated head (or the NDJSON head line) vary run to
// run.
func TestFederatedHeadVarsDeterministic(t *testing.T) {
	_, parts := unionAndParts(2)
	fed := New(
		endpoint.NewSource("rev0", "http://rev0/sparql", reversedVarsClient{st: parts[0]}),
		endpoint.NewSource("rev1", "http://rev1/sparql", reversedVarsClient{st: parts[1]}),
	)
	for i := 0; i < 10; i++ {
		rs, err := fed.Stream(context.Background(), `SELECT ?s ?o WHERE { ?s ?p ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Vars) != 2 || rs.Vars[0] != "s" || rs.Vars[1] != "o" {
			t.Fatalf("merged head vars = %v, want [s o] from the query's SELECT list", rs.Vars)
		}
		rs.Close()
	}
}

// fixedClient answers every query with one fixed result.
type fixedClient struct{ res *sparql.Result }

func (f fixedClient) Query(context.Context, string) (*sparql.Result, error) { return f.res, nil }

// TestFederatedStarHeadKeepsEveryCell: SELECT * heads the merged stream
// with the query's own variables, not with the head of whichever branch
// opens first — so when members head their rows differently (narrower,
// or in another order), every member's cell lands under its own variable
// in the positional row.
func TestFederatedStarHeadKeepsEveryCell(t *testing.T) {
	a, b, c := rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b"), rdf.NewIRI("http://ex/c")
	d, e := rdf.NewIRI("http://ex/d"), rdf.NewIRI("http://ex/e")
	fed := New(
		endpoint.NewSource("narrow", "http://narrow/sparql", fixedClient{&sparql.Result{
			Vars: []string{"s"}, Rows: []sparql.Binding{{"s": a}}}}),
		endpoint.NewSource("wide", "http://wide/sparql", fixedClient{&sparql.Result{
			Vars: []string{"s", "o"}, Rows: []sparql.Binding{{"s": b, "o": c}}}}),
		endpoint.NewSource("reordered", "http://reordered/sparql", fixedClient{&sparql.Result{
			Vars: []string{"p", "s"}, Rows: []sparql.Binding{{"p": d, "s": e}}}}),
	)
	want := []string{
		sparql.BindingKey(sparql.Binding{"s": a}, []string{"o", "p", "s"}),
		sparql.BindingKey(sparql.Binding{"s": b, "o": c}, []string{"o", "p", "s"}),
		sparql.BindingKey(sparql.Binding{"p": d, "s": e}, []string{"o", "p", "s"}),
	}
	sort.Strings(want)
	for i := 0; i < 10; i++ {
		res, err := fed.Query(context.Background(), `SELECT * WHERE { ?s ?p ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.Vars, " "); got != "o p s" {
			t.Fatalf("merged head vars = [%s], want [o p s] from the query's pattern", got)
		}
		if got := sortedKeysOf(t, res); !slices.Equal(got, want) {
			t.Fatalf("merged rows %q, want %q: every member's cells under their own variables", got, want)
		}
	}
}

// limitIgnoringClient answers every query with the same fixed rows,
// modeling a quirky engine that ignores the LIMIT it was sent.
type limitIgnoringClient struct{ rows int }

func (l limitIgnoringClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	res := &sparql.Result{Vars: []string{"s"}}
	for i := 0; i < l.rows; i++ {
		res.Rows = append(res.Rows, sparql.Binding{"s": rdf.NewIRI(fmt.Sprintf("http://ex/i%d", i))})
	}
	return res, nil
}

// TestFederatedLimitHoldsAgainstQuirkyMember: the merge-level LIMIT is
// self-sufficient — a member over-delivering past its local cap cannot
// push the merged stream past it, including LIMIT 0.
func TestFederatedLimitHoldsAgainstQuirkyMember(t *testing.T) {
	fed := New(
		endpoint.NewSource("quirk0", "http://quirk0/sparql", limitIgnoringClient{rows: 10}),
		endpoint.NewSource("quirk1", "http://quirk1/sparql", limitIgnoringClient{rows: 10}),
	)
	for _, tc := range []struct{ limit, want int }{{0, 0}, {3, 3}, {50, 20}} {
		res, err := fed.Query(context.Background(), fmt.Sprintf(`SELECT ?s WHERE { ?s ?p ?o } LIMIT %d`, tc.limit))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.want {
			t.Fatalf("LIMIT %d: merged %d rows, want %d", tc.limit, len(res.Rows), tc.want)
		}
	}
}

// TestFederatedTopKComposesWithBranchHeaps: an ORDER BY … LIMIT k fan-out
// now runs each member through the streaming top-k heap (each branch
// returns at most k rows) and those truncated branch streams feed the
// ordered k-way merge. The composition must stay exact: the merged
// result is the union endpoint's global top-k in order, not an artifact
// of which branch truncated what.
func TestFederatedTopKComposesWithBranchHeaps(t *testing.T) {
	const k = 25
	union, parts := unionAndParts(3)
	srcs := localSources(parts)
	fed := New(srcs...)
	q := fmt.Sprintf(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s ?p LIMIT %d`, k)

	want, err := endpoint.LocalClient{Store: union}.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("union: %v", err)
	}
	if len(want.Rows) != k {
		t.Fatalf("fixture too small: union top-k has %d rows, want %d", len(want.Rows), k)
	}

	reg := obs.NewRegistry()
	fed.Metrics = reg
	got, err := fed.Query(obs.WithRegistry(context.Background(), reg), q)
	if err != nil {
		t.Fatalf("federated: %v", err)
	}
	if len(got.Rows) != k {
		t.Fatalf("federated %d rows, want %d", len(got.Rows), k)
	}
	// the sort keys (?o ?s ?p) cover every projected variable, so the
	// global order is total and the sequences must match exactly
	for i := range want.Rows {
		wk := sparql.BindingKey(want.Rows[i], want.Vars)
		gk := sparql.BindingKey(got.Rows[i], want.Vars)
		if wk != gk {
			t.Fatalf("row %d differs:\n  fed   %q\n  union %q", i, gk, wk)
		}
	}
	// every branch must have taken the streaming top-k path …
	if n := reg.CounterVec("hbold_stream_op_total", "Streaming operator activations by operator.", "op").With("top-k").Value(); n != float64(len(parts)) {
		t.Fatalf("top-k operator activations = %v, want %d (one per branch)", n, len(parts))
	}
	// … and therefore handed the merge at most k rows each
	for _, src := range srcs {
		if n := stat(reg, "rows_total", src.URL); n > k {
			t.Fatalf("%s delivered %v rows into the merge; branch top-k should cap at %d", src.URL, n, k)
		}
	}
}

// TestFederatedLimitDoesNotWaitForTheStall: a satisfied LIMIT ends the
// merged stream at once — before any row for LIMIT 0, right after the
// n-th row otherwise — and cancels a member that has not delivered
// instead of waiting it out.
func TestFederatedLimitDoesNotWaitForTheStall(t *testing.T) {
	_, parts := unionAndParts(1)
	for _, limit := range []int{1, 0} {
		var canceled atomic.Int32
		fed := New(localSources(parts)[0], endpoint.NewSource("stall", "http://stall/sparql",
			slowOpenClient{st: parts[0], delay: 5 * time.Second, canceled: &canceled}))
		start := time.Now()
		res, err := fed.Query(context.Background(), fmt.Sprintf(`SELECT ?s WHERE { ?s ?p ?o } LIMIT %d`, limit))
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("LIMIT %d took %v: the merge waited for the stalled member", limit, elapsed)
		}
		if len(res.Rows) != limit {
			t.Fatalf("LIMIT %d: %d rows", limit, len(res.Rows))
		}
		if n := canceled.Load(); n != 1 {
			t.Fatalf("LIMIT %d: the stalled member's context ended %d times, want 1", limit, n)
		}
	}
}

// TestFatalOpenFailureAddsElapsed: a leg that fails fatally at open adds
// its time to the source's elapsed series, like every other outcome.
func TestFatalOpenFailureAddsElapsed(t *testing.T) {
	_, parts := unionAndParts(1)
	down := endpoint.NewRemote("down", "http://down/sparql", parts[0], nil, endpoint.AlwaysDown(), nil)
	bad := endpoint.NewSource("down", "http://down/sparql", down)
	fed := New(bad)
	reg := obs.NewRegistry()
	fed.Metrics = reg
	if _, err := fed.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`); !errors.Is(err, endpoint.ErrUnavailable) {
		t.Fatalf("err = %v, want the open failure", err)
	}
	if n := stat(reg, "errors_total", bad.URL); n != 1 {
		t.Fatalf("errors = %v, want 1", n)
	}
	if s := stat(reg, "elapsed_seconds_total", bad.URL); s <= 0 {
		t.Fatalf("elapsed = %v s after a fatal open failure, want > 0", s)
	}
}

// TestFederatedAllocationsPerRow gates what a delivered row costs a
// 3-member federation, measured as the allocations of LIMIT 500 less
// those of LIMIT 50, over 450: unordered, the one copy a leg makes to
// hand the row across goroutines; DISTINCT, that plus the key the merge
// keeps of a new row. ORDER BY is reported, not gated: the members'
// own top-k and the merge's sort keys dominate it.
func TestFederatedAllocationsPerRow(t *testing.T) {
	_, parts := unionAndParts(3)
	fed := New(localSources(parts)...)
	perRow := func(query string) float64 {
		allocs := func(n int) float64 {
			q := fmt.Sprintf("%s LIMIT %d", query, n)
			return testing.AllocsPerRun(20, func() {
				rs, err := fed.Stream(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for range rs.Terms() {
					rows++
				}
				if rs.Err() != nil || rows != n {
					t.Fatalf("%s: %d rows, err %v", q, rows, rs.Err())
				}
			})
		}
		small, large := allocs(50), allocs(500)
		return (large - small) / 450
	}
	for _, tc := range []struct {
		query string
		max   float64 // 0: reported only
	}{
		{`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 1.1},
		{`SELECT DISTINCT ?s ?p ?o WHERE { ?s ?p ?o }`, 3},
		{`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`, 0},
	} {
		got := perRow(tc.query)
		t.Logf("%s: %.2f allocations per delivered row", tc.query, got)
		if tc.max > 0 && got > tc.max {
			t.Errorf("%s: %.2f allocations per delivered row, want ≤ %v", tc.query, got, tc.max)
		}
	}
}
