package sparql

// Engine micro-benchmarks. BenchmarkJoinInnerLoop drives the compiled
// plan through the pipeline into a counting sink — no projection, no
// Result materialization — so its allocs/op number is the allocation
// cost of the join inner loop itself: one index-callback closure per
// pattern invocation (~0.4 per produced row over the 16k rows), no maps
// and no row arena; the reference twin allocates one map clone per
// candidate row.

import (
	"context"
	"fmt"
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

func BenchmarkJoinInnerLoopReference(b *testing.B) {
	st := joinBenchStore()
	q := MustParse(joinBenchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &evaluator{st: st}
		sols := ev.evalGroup(q.Where, []Binding{{}})
		if len(sols) != joinBenchRows {
			b.Fatalf("rows = %d, want %d", len(sols), joinBenchRows)
		}
	}
}
