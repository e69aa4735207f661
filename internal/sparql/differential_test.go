package sparql_test

// Differential harness: every query of the package's fixed test corpus
// plus randomized queries over internal/synth stores run through the
// single executor's two drains (Exec and Stream().Collect()) and the
// term-space reference evaluator, asserting equivalent results. CI runs
// this under -race, so the lock-free Reader path is exercised by the
// race detector too.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/turtle"
)

const diffFixture = `
@prefix ex: <http://ex/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:alice a ex:Person ; rdfs:label "Alice" ; ex:age 30 ; ex:knows ex:bob, ex:carol .
ex:bob   a ex:Person ; rdfs:label "Bob"   ; ex:age 25 ; ex:knows ex:carol .
ex:carol a ex:Person ; rdfs:label "Carol" ; ex:age 35 .
ex:conf  a ex:Event  ; rdfs:label "EDBT"  ; ex:year 2020 ; ex:organizedBy ex:alice .
ex:ws    a ex:Event  ; rdfs:label "Workshop"@en ; ex:year 2019 .
`

// diffCorpus is the full fixed query corpus: every executable query from
// sparql_test.go, construct_test.go and expr-level behaviours, evaluated
// over the shared fixture store.
var diffCorpus = []string{
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person }`,
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:knows ?o }`,
	`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?c }`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a FILTER(?a > 28) }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER regex(?l, "^A") }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER regex(?l, "aLiCe", "i") }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Person FILTER regex(?s, "alice") }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } }`,
	`PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Event } }`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person MINUS { ?p ex:knows ex:carol } }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?a2 WHERE { ?p ex:age ?a BIND(?a * 2 AS ?a2) }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?a WHERE { VALUES ?p { ex:alice ex:bob } ?p ex:age ?a }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?a WHERE { ?p ex:age ?a VALUES (?p ?a) { (ex:alice UNDEF) (UNDEF 25) } }`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?c WHERE { ?s a ?c }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2 OFFSET 1`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
	`SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s a ?c }`,
	`PREFIX ex: <http://ex/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)`,
	`PREFIX ex: <http://ex/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c HAVING (COUNT(?s) > 2)`,
	`PREFIX ex: <http://ex/> SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?avg) (MIN(?a) AS ?min) (MAX(?a) AS ?max) WHERE { ?p ex:age ?a }`,
	`PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`,
	`PREFIX ex: <http://ex/> ASK { ex:bob ex:knows ex:alice }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(STRLEN(?l) = 5) }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(UCASE(?l) = "BOB") }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER CONTAINS(?l, "o") }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER STRSTARTS(?l, "E") }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(LANG(?l) = "en") }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER ISNUMERIC(?a) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Person FILTER ISIRI(?s) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(ABS(?a - 30) < 1) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a IN (25, 35)) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a NOT IN (25, 35)) }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?s WHERE { ?s rdfs:label ?l FILTER(DATATYPE(?l) = <http://www.w3.org/2001/XMLSchema#string>) }`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } FILTER(!BOUND(?k)) }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?v WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } BIND(COALESCE(?k, ex:nobody) AS ?v) }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?cat WHERE { ?p ex:age ?a BIND(IF(?a >= 30, "senior", "junior") AS ?cat) } ORDER BY ?p`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } FILTER( (?k = ex:bob) || true ) }`,
	`PREFIX ex: <http://ex/> SELECT ?p (?a + 1 AS ?next) WHERE { ?p ex:age ?a } ORDER BY ?a`,
	`PREFIX ex: <http://ex/> SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k FILTER(?k = ex:bob) } }`,
	`PREFIX ex: <http://ex/> SELECT ?p WHERE { { ?p a ex:Person } { ?p ex:age ?a } FILTER(?a < 31) }`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?l WHERE { ?s rdfs:label ?l FILTER(LANG(?l) = "") } ORDER BY ?l`,
	`PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> SELECT ?p ?l WHERE { ?p rdfs:label ?l }`,
	`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Nothing }`,
	`PREFIX ex: <http://ex/> SELECT (GROUP_CONCAT(?a ; SEPARATOR = "|") AS ?all) WHERE { ?p ex:age ?a } GROUP BY ?p`,
	`SELECT ?x WHERE { ?x <http://ex/knows> ?x }`,
	`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 4`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Person } LIMIT 1 OFFSET 1`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?a ex:acquaintedWith ?b } WHERE { ?a ex:knows ?b }`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?p a ex:Agent . ?p ex:labelCopy ?l . } WHERE { ?p a ex:Person ; <http://www.w3.org/2000/01/rdf-schema#label> ?l }`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?p ex:knowsCopy ?k } WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } }`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?l ex:of ?p } WHERE { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?l }`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?p ex:sighting _:s . _:s ex:seen ?k } WHERE { ?p ex:knows ?k }`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ?a ex:c ?b } WHERE { ?a ex:knows ?b } LIMIT 1`,
	`PREFIX ex: <http://ex/> CONSTRUCT { ex:dataset ex:has ex:people } WHERE { ?p a ex:Person }`,
	// engine-specific edges: unknown constants, empty groups, unbound
	// projections, local-ID joins
	`SELECT ?x WHERE { ?x <http://nowhere/p> <http://nowhere/o> }`,
	`PREFIX ex: <http://ex/> SELECT ?ghost WHERE { ?p a ex:Person }`,
	`PREFIX ex: <http://ex/> SELECT ?p ?s WHERE { ?p a ex:Person BIND(STR(?p) AS ?s) FILTER(STRLEN(?s) > 3) }`,
	`PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { VALUES (?x ?y) { (ex:alice "ghost") (ex:bob UNDEF) } OPTIONAL { ?x ex:age ?y } }`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?a ?b ?c ?d ?e WHERE { ?a ex:knows ?b . ?a ex:age ?c . ?a a ?d OPTIONAL { ?b ex:age ?e } }`,
	// DISTINCT/REDUCED under ORDER BY: an order on projected variables
	// only dedupes as rows arrive; one on a variable the projection drops
	// sorts every row first
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?p WHERE { ?p ex:knows ?k . ?k ex:age ?a } ORDER BY DESC(?a) ?p`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?k WHERE { ?p ex:knows ?k } ORDER BY DESC(?k)`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY ?c LIMIT 1 OFFSET 1`,
	`SELECT DISTINCT ?p ?c WHERE { ?s ?p ?o . ?s a ?c } ORDER BY ?p ?c LIMIT 3 OFFSET 2`,
	`SELECT DISTINCT ?p ?c WHERE { ?s ?p ?o . ?s a ?c } ORDER BY ?p DESC(?c) OFFSET 4`,
	`PREFIX ex: <http://ex/> SELECT REDUCED ?c WHERE { ?s a ?c } ORDER BY ?c`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT (STR(?c) AS ?n) WHERE { ?s a ?c } ORDER BY DESC(?n)`,
	`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?y . ?y ex:knows ?z }`,
}

func diffStore(t testing.TB) *store.Store {
	t.Helper()
	g, err := turtle.Parse(diffFixture)
	if err != nil {
		t.Fatal(err)
	}
	return store.FromGraph(g)
}

// rowKeysInOrder renders the result rows as canonical strings in result
// order.
func rowKeysInOrder(res *sparql.Result) []string {
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var sb strings.Builder
		for _, v := range res.Vars {
			if t, ok := r[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('\x00')
		}
		keys = append(keys, sb.String())
	}
	return keys
}

// rowKeys renders the result rows as canonical strings and sorts them.
func rowKeys(res *sparql.Result) []string {
	keys := rowKeysInOrder(res)
	sort.Strings(keys)
	return keys
}

// graphKey canonicalizes a constructed graph: sorted N-Triples with blank
// labels collapsed (blank identity is scoped per solution and solution
// order is not part of the engine contract).
func graphKey(g *rdf.Graph) (string, int) {
	if g == nil {
		return "", 0
	}
	blanks := map[string]bool{}
	norm := func(t rdf.Term) rdf.Term {
		if t.IsBlank() {
			blanks[t.Value] = true
			return rdf.NewBlank("b")
		}
		return t
	}
	lines := make([]string, 0, g.Len())
	for _, tr := range g.Triples() {
		lines = append(lines, rdf.NewTriple(norm(tr.S), norm(tr.P), norm(tr.O)).String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), len(blanks)
}

// assertEngineAgreement runs the query through Exec, Stream().Collect()
// and the term-space reference and fails on any observable difference. ordered means the query's ORDER BY keys are
// known to impose a total order, so the exact row sequence is compared;
// without it, ties may legitimately differ between engines (stable sorts
// and top-k heaps over different join orders), so ordered results are
// compared position-by-position under the ORDER BY keys themselves and
// full multiset equality is asserted only when no window truncates them.
func assertEngineAgreement(t *testing.T, st *store.Store, query string, ordered bool) {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	idRes, idErr := q.Exec(st)
	lgRes, lgErr := reference.Exec(q, st)
	var smRes *sparql.Result
	smErr := func() error {
		rs, err := q.Stream(context.Background(), st)
		if err != nil {
			return err
		}
		smRes, err = rs.Collect()
		return err
	}()
	if (idErr == nil) != (lgErr == nil) || (smErr == nil) != (lgErr == nil) {
		t.Fatalf("query %q: errors disagree: exec=%v stream=%v reference=%v", query, idErr, smErr, lgErr)
	}
	if lgErr != nil {
		return
	}
	compareEngines(t, query, q, "exec", idRes, lgRes, ordered)
	compareEngines(t, query, q, "stream", smRes, lgRes, ordered)
}

// compareEngines checks one drain's result against the reference.
func compareEngines(t *testing.T, query string, q *sparql.Query, name string, got, want *sparql.Result, ordered bool) {
	t.Helper()
	if got.Ask != want.Ask || got.Boolean != want.Boolean {
		t.Fatalf("query %q: ASK disagreement: %s=%+v reference=%+v", query, name, got, want)
	}
	if got.Ask {
		return
	}
	if got.Graph != nil || want.Graph != nil {
		gk, gb := graphKey(got.Graph)
		lk, lb := graphKey(want.Graph)
		if q.Limit >= 0 && len(q.OrderBy) == 0 {
			// without a total order LIMIT may keep different solutions;
			// only the cardinality is comparable
			if got.Graph.Len() != want.Graph.Len() {
				t.Fatalf("query %q: graph sizes differ: %s=%d reference=%d", query, name, got.Graph.Len(), want.Graph.Len())
			}
			return
		}
		if gk != lk || gb != lb {
			t.Fatalf("query %q: graphs differ (blanks %d vs %d)\n%s:\n%s\nreference:\n%s", query, gb, lb, name, gk, lk)
		}
		return
	}
	if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
		t.Fatalf("query %q: vars differ: %s=%v reference=%v", query, name, got.Vars, want.Vars)
	}
	if len(q.OrderBy) > 0 {
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("query %q: row counts differ: %s=%d reference=%d", query, name, len(got.Rows), len(want.Rows))
		}
		if ordered {
			gk, lk := rowKeysInOrder(got), rowKeysInOrder(want)
			for i := range gk {
				if gk[i] != lk[i] {
					t.Fatalf("query %q: ordered row %d differs:\n%s: %q\nreference: %q", query, i, name, gk[i], lk[i])
				}
			}
			return
		}
		// Tie-aware: engines may order (and, under a window, retain)
		// different rows within a tie group, but position i must carry an
		// equal sort key in both results — otherwise one engine's "top k"
		// kept a row the order says it shouldn't have.
		for i := range got.Rows {
			gk := reference.OrderKeyOf(q.OrderBy, got.Rows[i])
			lk := reference.OrderKeyOf(q.OrderBy, want.Rows[i])
			if sparql.CompareOrderKeys(q.OrderBy, gk, lk) != 0 {
				t.Fatalf("query %q: sort key at row %d differs:\n%s: %v\nreference: %v", query, i, name, got.Rows[i], want.Rows[i])
			}
		}
		if q.Limit < 0 && q.Offset == 0 {
			// no window: the full row multisets must also coincide
			gk, lk := rowKeys(got), rowKeys(want)
			for i := range gk {
				if gk[i] != lk[i] {
					t.Fatalf("query %q: row %d differs:\n%s: %q\nreference: %q", query, i, name, gk[i], lk[i])
				}
			}
		}
		return
	}
	if (q.Limit >= 0 || q.Offset > 0) && len(q.OrderBy) == 0 {
		// row identity is not defined without a total order: each engine may
		// keep a different window, so only the row count is comparable
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("query %q: row counts differ: %s=%d reference=%d", query, name, len(got.Rows), len(want.Rows))
		}
		return
	}
	gk, lk := rowKeys(got), rowKeys(want)
	if len(gk) != len(lk) {
		t.Fatalf("query %q: row counts differ: %s=%d reference=%d", query, name, len(gk), len(lk))
	}
	for i := range gk {
		if gk[i] != lk[i] {
			t.Fatalf("query %q: row %d differs:\n%s: %q\nreference: %q", query, i, name, gk[i], lk[i])
		}
	}
}

func TestDifferentialFixedCorpus(t *testing.T) {
	st := diffStore(t)
	for _, q := range diffCorpus {
		// every ORDER BY query in the fixed corpus sorts on keys that are
		// unique per row, so the exact sequence is checked
		assertEngineAgreement(t, st, q, true)
	}
}

// --- randomized differential testing over synth stores ---

// The random query generator lives in internal/synth (synth.QueryGen) so
// other packages can fuzz against the same shape distribution. Its shapes
// include ORDER BY with LIMIT/OFFSET (the streaming top-k path) and
// GROUP BY with COUNT/SUM/MIN/MAX/AVG (the streaming hash-group path).
func TestDifferentialRandomized(t *testing.T) {
	stores := []*store.Store{
		synth.Generate(synth.Spec{Name: "diffa", Classes: 8, Instances: 300, ObjectProps: 12, DataProps: 6, LinkFactor: 2, CommunitySeeds: 3, Seed: 7}),
		synth.Generate(synth.Spec{Name: "diffb", Classes: 4, Instances: 120, ObjectProps: 6, DataProps: 4, LinkFactor: 1, Seed: 11}),
	}
	const perStore = 80
	for si, st := range stores {
		gen := synth.NewQueryGen(st, int64(100+si))
		for i := 0; i < perStore; i++ {
			q := gen.Query()
			// randomized ORDER BY keys may tie, so rows are compared
			// key-aware rather than as an exact sequence
			assertEngineAgreement(t, st, q, false)
		}
	}
}
