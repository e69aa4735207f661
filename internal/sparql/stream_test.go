package sparql_test

// Differential harness over the executor's two drains plus unit coverage
// for the RowSeq contract and the incremental JSON results codec. The
// differential runs the full fixed corpus and randomized synth queries
// through Query.Stream (collected through its Terms range) and Query.Exec
// (drained directly) and asserts identical results (up to row order, which SPARQL
// leaves undefined without ORDER BY). CI runs this under -race like the
// engine differential.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/synth"
)

// assertStreamAgreement executes the query materialized and streamed and
// fails on any observable difference, using the same comparison rules as
// the engine differential (assertEngineAgreement).
func assertStreamAgreement(t *testing.T, st *store.Store, query string) {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	exRes, exErr := q.Exec(st)
	rs, stErr := q.Stream(context.Background(), st)
	var stRes *sparql.Result
	if stErr == nil {
		stRes, stErr = rs.Collect()
	}
	if (exErr == nil) != (stErr == nil) {
		t.Fatalf("query %q: errors disagree: exec=%v stream=%v", query, exErr, stErr)
	}
	if exErr != nil {
		return
	}
	if exRes.Ask != stRes.Ask || exRes.Boolean != stRes.Boolean {
		t.Fatalf("query %q: ASK disagreement: exec=%+v stream=%+v", query, exRes, stRes)
	}
	if exRes.Ask {
		return
	}
	if exRes.Graph != nil || stRes.Graph != nil {
		ek, _ := graphKey(exRes.Graph)
		sk, _ := graphKey(stRes.Graph)
		if ek != sk {
			t.Fatalf("query %q: graphs differ\nexec:\n%s\nstream:\n%s", query, ek, sk)
		}
		return
	}
	if fmt.Sprint(exRes.Vars) != fmt.Sprint(stRes.Vars) {
		t.Fatalf("query %q: vars differ: %v vs %v", query, exRes.Vars, stRes.Vars)
	}
	if (q.Limit >= 0 || q.Offset > 0) && len(q.OrderBy) == 0 {
		// without a total order each path may keep a different window;
		// only the count is comparable
		if len(exRes.Rows) != len(stRes.Rows) {
			t.Fatalf("query %q: row counts differ: %d vs %d", query, len(exRes.Rows), len(stRes.Rows))
		}
		return
	}
	if len(q.OrderBy) > 0 {
		// rows are compared position-by-position under the ORDER BY keys,
		// the same tie-aware rule the engine differential applies against
		// the reference; without a window the full multisets must also
		// match
		if len(exRes.Rows) != len(stRes.Rows) {
			t.Fatalf("query %q: row counts differ: %d vs %d", query, len(exRes.Rows), len(stRes.Rows))
		}
		for i := range exRes.Rows {
			ek := sparql.OrderKeyOf(q.OrderBy, exRes.Rows[i])
			sk := sparql.OrderKeyOf(q.OrderBy, stRes.Rows[i])
			if sparql.CompareOrderKeys(q.OrderBy, ek, sk) != 0 {
				t.Fatalf("query %q: sort key at row %d differs:\nexec:   %v\nstream: %v", query, i, exRes.Rows[i], stRes.Rows[i])
			}
		}
		if q.Limit < 0 && q.Offset == 0 {
			ek, sk := rowKeys(exRes), rowKeys(stRes)
			if strings.Join(ek, "\n") != strings.Join(sk, "\n") {
				t.Fatalf("query %q: ordered rows differ\nexec:   %q\nstream: %q", query, ek, sk)
			}
		}
		return
	}
	ek, sk := rowKeys(exRes), rowKeys(stRes)
	if len(ek) != len(sk) {
		t.Fatalf("query %q: row counts differ: %d vs %d", query, len(ek), len(sk))
	}
	for i := range ek {
		if ek[i] != sk[i] {
			t.Fatalf("query %q: row %d differs:\nexec:   %q\nstream: %q", query, i, ek[i], sk[i])
		}
	}
}

func TestStreamDifferentialFixedCorpus(t *testing.T) {
	st := diffStore(t)
	for _, q := range diffCorpus {
		assertStreamAgreement(t, st, q)
	}
}

func TestStreamDifferentialRandomized(t *testing.T) {
	stores := []*store.Store{
		synth.Generate(synth.Spec{Name: "sdiffa", Classes: 8, Instances: 300, ObjectProps: 12, DataProps: 6, LinkFactor: 2, CommunitySeeds: 3, Seed: 7}),
		synth.Generate(synth.Spec{Name: "sdiffb", Classes: 4, Instances: 120, ObjectProps: 6, DataProps: 4, LinkFactor: 1, Seed: 11}),
	}
	const perStore = 60
	for si, st := range stores {
		gen := synth.NewQueryGen(st, int64(500+si))
		for i := 0; i < perStore; i++ {
			assertStreamAgreement(t, st, gen.Query())
		}
	}
}

func TestStreamCancelMidStream(t *testing.T) {
	st := synth.Generate(synth.Spec{Name: "cancel", Classes: 6, Instances: 800, ObjectProps: 8, DataProps: 4, LinkFactor: 2, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs, err := sparql.StreamExec(ctx, st, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	got := 0
	for range rs.All() {
		got++
		if got == 3 {
			cancel()
		}
		if got > 4 {
			t.Fatalf("stream kept producing after cancel: %d rows", got)
		}
	}
	if got < 3 {
		t.Fatalf("stream ended after %d rows, before the cancel", got)
	}
	if err := rs.Err(); err != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
}

// trippingStore cancels the query's context at the moment the index scan
// hands over its `after`-th triple, and counts the triples scanned. It
// makes mid-evaluation cancellation deterministic — the trip happens at a
// fixed row, not whenever a timer fires — and it trips between the scan's
// own context samples (one per 256 steps), so only a sink that polls the
// context for every row stops the scan there.
type trippingStore struct {
	*store.Store
	cancel         context.CancelFunc
	scanned, after int
}

func (ts *trippingStore) Snapshot() store.ReaderAPI {
	return trippingReader{ts.Store.Snapshot(), ts}
}

type trippingReader struct {
	store.ReaderAPI
	ts *trippingStore
}

// Runs hands each run on one ID at a time, so the trip lands on the
// after-th triple, not on the run that holds it.
func (r trippingReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	return r.ReaderAPI.Runs(pat, func(rn store.Run) bool {
		for i := range rn.IDs {
			if r.ts.scanned++; r.ts.scanned == r.ts.after {
				r.ts.cancel()
			}
			one := rn
			one.IDs = rn.IDs[i : i+1]
			if !fn(one) {
				return false
			}
		}
		return true
	})
}

// TestStreamTopKCancelsPreSort: every shape whose sink holds rows back
// cancels while it is still collecting, before any row is emitted — the
// top-k heap and, through the same pipeline, the buffering sink behind
// unwindowed ORDER BY, ORDER BY + DISTINCT, HAVING and CONSTRUCT. A
// finished-Result stream would only consult the context between rows it
// had already computed.
func TestStreamTopKCancelsPreSort(t *testing.T) {
	st := synth.Generate(synth.Spec{Name: "topkcancel", Classes: 6, Instances: 800, ObjectProps: 8, DataProps: 4, LinkFactor: 2, Seed: 3})
	for _, tc := range []struct{ name, query string }{
		{"top-k", `SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 5`},
		{"order-by", `SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s`},
		{"distinct-order-limit", `SELECT DISTINCT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 5`},
		{"having", `SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p HAVING (COUNT(?o) > 1)`},
		{"construct", `CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ts := &trippingStore{Store: st, cancel: cancel, after: 50}
			rows := 0
			// ASK and CONSTRUCT run inside Stream; the rest on the drain
			rs, err := q.Stream(ctx, ts)
			if err == nil {
				for range rs.All() {
					rows++
				}
				err = rs.Err()
				rs.Close()
			}
			if rows != 0 {
				t.Fatalf("stream yielded %d rows after cancelling during collection; the sink must not emit", rows)
			}
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// the evaluation must have stopped at the row that tripped: the
			// sink polls per row. Not at the scan's next sample, and not by
			// scanning the full pattern and noticing at emission.
			if ts.scanned != ts.after {
				t.Fatalf("scan handed over %d triples of %d after a cancel at triple %d: the sink did not stop it there", ts.scanned, st.Len(), ts.after)
			}
		})
	}
}

func TestStreamLimitStopsEarly(t *testing.T) {
	st := synth.Generate(synth.Spec{Name: "limit", Classes: 6, Instances: 800, ObjectProps: 8, DataProps: 4, LinkFactor: 2, Seed: 4})
	rs, err := sparql.StreamExec(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 streamed %d rows", len(res.Rows))
	}
	// LIMIT 0 must yield nothing, not one row
	rs, err = sparql.StreamExec(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := rs.Collect(); err != nil || len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 = %d rows, err %v", len(res.Rows), err)
	}
}

func TestRowSeqLimitAndTap(t *testing.T) {
	res := &sparql.Result{Vars: []string{"x"}}
	for i := 0; i < 10; i++ {
		res.Rows = append(res.Rows, sparql.Binding{})
	}
	tapped := 0
	rs := sparql.ResultSeq(res).Tap(func([]rdf.Term) { tapped++ }).Limit(4)
	out, err := rs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 4 || tapped != 4 {
		t.Fatalf("rows = %d, tapped = %d, want 4/4", len(out.Rows), tapped)
	}
}

func TestRowSeqCloseIdempotent(t *testing.T) {
	closed := 0
	rs := sparql.ResultSeq(&sparql.Result{Vars: []string{"x"}})
	rs.OnClose(func() { closed++ })
	rs.Close()
	rs.Close()
	for range rs.Terms() {
		t.Fatal("a range after Close yielded a row")
	}
	if closed != 1 {
		t.Fatalf("OnClose ran %d times", closed)
	}
}

// --- incremental JSON results codec ---

func streamDoc(t *testing.T, query string) string {
	t.Helper()
	st := diffStore(t)
	rs, err := sparql.StreamExec(context.Background(), st, query)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	jw := results.NewWriter(results.JSON, &sb, rs.Vars)
	for row := range rs.All() {
		if err := jw.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestJSONRowRoundtrip(t *testing.T) {
	query := `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?p ?l WHERE { ?p rdfs:label ?l }`
	doc := streamDoc(t, query)

	// the incremental writer's document must parse with an independent
	// decoder — plain encoding/json over the W3C document shape...
	var plain struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
	}
	if err := json.Unmarshal([]byte(doc), &plain); err != nil {
		t.Fatalf("plain decode of streamed doc: %v\n%s", err, doc)
	}
	if fmt.Sprint(plain.Head.Vars) != "[p l]" || len(plain.Results.Bindings) != 5 {
		t.Fatalf("plain decode: vars %v, %d rows, want [p l] and 5", plain.Head.Vars, len(plain.Results.Bindings))
	}
	var want []string
	for _, b := range plain.Results.Bindings {
		if b["p"].Type != "uri" || b["l"].Type != "literal" {
			t.Fatalf("term types = %q, %q", b["p"].Type, b["l"].Type)
		}
		want = append(want, b["p"].Value+" "+b["l"].Value)
	}

	// ...and with the incremental reader, to the same rows
	rr, err := sparql.NewJSONRowReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rr.Vars()) != "[p l]" {
		t.Fatalf("vars = %v", rr.Vars())
	}
	var keys []string
	row := make([]rdf.Term, 2)
	for {
		err := rr.Next(row)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, row[0].Value+" "+row[1].Value)
	}
	sort.Strings(want)
	sort.Strings(keys)
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("incremental rows = %v\nplain decode     = %v", keys, want)
	}
}

func TestJSONRowReaderAsk(t *testing.T) {
	var sb strings.Builder
	if err := sparql.WriteAskJSON(&sb, true); err != nil {
		t.Fatal(err)
	}
	rr, err := sparql.NewJSONRowReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if val, ok := rr.Ask(); !ok || !val {
		t.Fatalf("Ask() = %v, %v", val, ok)
	}
	if err := rr.Next(nil); err != io.EOF {
		t.Fatalf("Next on ASK = %v, want EOF", err)
	}
}

func TestJSONRowReaderTruncated(t *testing.T) {
	doc := streamDoc(t, `PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person }`)
	// cut the document at various points: every prefix must fail with an
	// error, never report a clean end with fewer rows
	for _, cut := range []int{len(doc) - 1, len(doc) - 3, len(doc) / 2} {
		rr, err := sparql.NewJSONRowReader(strings.NewReader(doc[:cut]))
		if err != nil {
			continue // truncated inside the prologue: also an error, fine
		}
		row := make([]rdf.Term, len(rr.Vars()))
		for err == nil {
			err = rr.Next(row)
		}
		if err == io.EOF {
			t.Fatalf("cut at %d: reader reported a clean end of a truncated document", cut)
		}
	}
}

func TestJSONRowReaderGarbage(t *testing.T) {
	for _, doc := range []string{
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"x"}} garbage`,
		`{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"wat","value":"x"}}]}}`,
		`not json at all`,
		// the head names the columns: bindings before it are an error,
		// not rows without cells
		`{"results":{"bindings":[{"s":{"type":"uri","value":"x"}}]},"head":{"vars":["s"]}}`,
		// a second head, results or bindings after the rows went out
		`{"head":{"vars":["s"]},"results":{"bindings":[]},"head":{"vars":["t"]}}`,
		`{"head":{"vars":["s"]},"results":{"bindings":[],"bindings":[{}]}}`,
	} {
		rr, err := sparql.NewJSONRowReader(strings.NewReader(doc))
		if err != nil {
			continue
		}
		row := make([]rdf.Term, len(rr.Vars()))
		for err == nil {
			err = rr.Next(row)
		}
		if err == io.EOF {
			t.Fatalf("malformed document read cleanly: %s", doc)
		}
	}
}
