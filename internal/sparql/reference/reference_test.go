package reference

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// TestAggregateErrorIsAnOrdinaryExpressionError: an aggregate that errors
// (MIN of nothing, SUM over a non-number) is an error *value* inside the
// expression around it, so || and COALESCE treat it as they treat any
// other — both here and on the executor, which shares none of this
// package's grouping code.
func TestAggregateErrorIsAnOrdinaryExpressionError(t *testing.T) {
	g, err := turtle.Parse(`@prefix ex: <http://ex/> .
ex:a ex:cat ex:X ; ex:n 1 . ex:b ex:cat ex:X ; ex:n 2 . ex:c ex:cat ex:Y ; ex:n "many" .`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.FromGraph(g)
	for query, want := range map[string]string{
		`PREFIX ex: <http://ex/> SELECT (COALESCE(SUM(?n), -1) AS ?v) WHERE { ?s ex:cat ex:Y ; ex:n ?n }`:                         `"-1"`,
		`PREFIX ex: <http://ex/> SELECT (COALESCE(MIN(?n), "none") AS ?v) WHERE { ?s ex:cat ex:Z ; ex:n ?n }`:                     `"none"`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?v) WHERE { ?s ex:cat ex:Y ; ex:n ?n } HAVING (SUM(?n) > 0 || COUNT(*) = 1)`: `"1"`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?v) WHERE { ?s ex:cat ex:Y ; ex:n ?n } HAVING (SUM(?n) > 0 && COUNT(*) = 1)`: ``,
		`PREFIX ex: <http://ex/> SELECT (IF(BOUND(?ghost), 1, COUNT(*)) AS ?v) WHERE { ?s ex:cat ex:X }`:                          `"2"`,
	} {
		q := sparql.MustParse(query)
		ref, err := Exec(q, st)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := q.Exec(st)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*sparql.Result{"reference": ref, "executor": exe} {
			got := ""
			if len(res.Rows) > 0 {
				got = fmt.Sprintf("%q", res.Rows[0]["v"].Value)
			}
			if len(res.Rows) > 1 || got != want {
				t.Errorf("%s on %s: %d rows, ?v = %s; want %s", name, query, len(res.Rows), got, want)
			}
		}
	}
}

// BenchmarkJoinInnerLoopReference is the twin of internal/sparql's
// BenchmarkJoinInnerLoop on the same two-hop graph (1000 subjects → 4 mids
// each via p1, 800 mids → 4 leaves each via p2; 16000 solutions): the
// pattern evaluator alone, no projection.
func BenchmarkJoinInnerLoopReference(b *testing.B) {
	st := store.New()
	p1, p2 := rdf.NewIRI("http://b/p1"), rdf.NewIRI("http://b/p2")
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
	q := sparql.MustParse(`SELECT ?a ?b ?c WHERE { ?a <http://b/p1> ?b . ?b <http://b/p2> ?c }`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &evaluator{st: st}
		if sols := ev.evalGroup(q.Where, []sparql.Binding{{}}); len(sols) != 16000 {
			b.Fatalf("rows = %d, want 16000", len(sols))
		}
	}
}
