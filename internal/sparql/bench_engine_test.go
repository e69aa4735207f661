package sparql

// Engine micro-benchmarks. BenchmarkJoinInnerLoop drives the compiled
// plan through the pipeline into a counting sink — no projection, no
// Result materialization — so its allocs/op number is the allocation
// cost of the join inner loop itself: one index-callback closure per
// pattern invocation (~0.4 per produced row over the 16k rows), no maps
// and no row arena; the reference twin (BenchmarkJoinInnerLoopReference,
// in internal/sparql/reference) allocates one map clone per candidate row.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// joinBenchStore is a two-hop graph: 1000 subjects → 4 mids each via p1,
// 800 mids → 4 leaves each via p2, so ?a p1 ?b . ?b p2 ?c yields 16000
// solutions.
func joinBenchStore() *store.Store {
	st := store.New()
	p1 := rdf.NewIRI("http://b/p1")
	p2 := rdf.NewIRI("http://b/p2")
	for i := 0; i < 1000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://b/s%d", i))
		for j := 0; j < 4; j++ {
			st.AddSPO(s, p1, rdf.NewIRI(fmt.Sprintf("http://b/m%d", (i*4+j)%800)))
		}
	}
	for i := 0; i < 800; i++ {
		m := rdf.NewIRI(fmt.Sprintf("http://b/m%d", i))
		for j := 0; j < 4; j++ {
			st.AddSPO(m, p2, rdf.NewIRI(fmt.Sprintf("http://b/l%d", (i*4+j)%500)))
		}
	}
	return st
}

const joinBenchQuery = `SELECT ?a ?b ?c WHERE { ?a <http://b/p1> ?b . ?b <http://b/p2> ?c }`

const joinBenchRows = 16000

func BenchmarkJoinInnerLoop(b *testing.B) {
	st := joinBenchStore()
	q := MustParse(joinBenchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := q.compile(st)
		if err != nil {
			b.Fatal(err)
		}
		se := &streamExec{ctx: context.Background(), ex: p.ex, orders: map[*cBGP][]int{}, minus: map[*cMinus]*rowbuf{}}
		rows := 0
		se.streamGroup(p.root, make([]store.ID, p.ex.nslots), 0, func([]store.ID, int) bool {
			rows++
			return true
		})
		if rows != joinBenchRows {
			b.Fatalf("rows = %d, want %d", rows, joinBenchRows)
		}
	}
}

// TestGroupedStateIsPerGroup: a grouped query's live state is its groups,
// whatever the shape. HAVING used to send the query down a path that
// buffered every solution and materialized each as a Binding before
// grouping (118 MB here, over 2 KB a solution); folded in ID space the
// same query allocates under 2 KB per group and nothing per solution.
func TestGroupedStateIsPerGroup(t *testing.T) {
	const preds, perPred = 10, 5000
	st := store.New()
	for p := 0; p < preds; p++ {
		pred := rdf.NewIRI(fmt.Sprintf("http://g/p%d", p))
		for i := 0; i < perPred; i++ {
			st.AddSPO(rdf.NewIRI(fmt.Sprintf("http://g/s%d", i)), pred, rdf.NewInteger(int64(i%97)))
		}
	}
	q := MustParse(`SELECT ?p (COUNT(?o) AS ?n) (SUM(?o) AS ?sum) WHERE { ?s ?p ?o } GROUP BY ?p HAVING (COUNT(?o) > 1 && MAX(?o) > 3)`)
	run := func() {
		res, err := q.Exec(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != preds || res.Rows[0]["n"] != rdf.NewInteger(perPred) {
			t.Fatalf("%d groups, first %v; want %d groups of %d", len(res.Rows), res.Rows[0], preds, perPred)
		}
	}
	run() // the first run pays for one-time initialization
	const rounds = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	perQuery := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	t.Logf("bytes per grouped query over %d solutions in %d groups: %.0f", preds*perPred, preds, perQuery)
	if perQuery > 256<<10 {
		t.Errorf("a %d-group query over %d solutions allocates %.0f bytes, over the 256 KiB budget: its state is per solution", preds, preds*perPred, perQuery)
	}
}
