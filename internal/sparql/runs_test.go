package sparql_test

// Runs are the executor's unit: the last pattern of a join hands each
// store run to the sinks whole, and the grouped, DISTINCT and top-k sinks
// fold it. These tests hold the fold to what the rows would give one at
// a time — in the same order, on both tiers — and to the reference
// evaluator.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
	"repro/internal/store"
	"repro/internal/store/disk"
)

// singly is a store whose reads hand every run on one ID at a time, so
// the executor folds nothing: per-row semantics, in the same order.
type singly struct{ store.Queryable }

func (s singly) Snapshot() store.ReaderAPI { return singlyReader{s.Queryable.Snapshot()} }

type singlyReader struct{ store.ReaderAPI }

func (r singlyReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	return r.ReaderAPI.Runs(pat, func(rn store.Run) bool {
		for i := range rn.IDs {
			one := rn
			one.IDs = rn.IDs[i : i+1]
			if !fn(one) {
				return false
			}
		}
		return true
	})
}

func (r singlyReader) Release() {
	if rd, ok := r.ReaderAPI.(interface{ Release() }); ok {
		rd.Release()
	}
}

// runsStore has long runs on every index: 600 instances of ex:C0 (and
// fewer of C1, C2), one of five ex:val values each — past the disk
// tier's run bound, so a run of equal keys is cut in two there — one to
// three ex:tag values on most, ex:knows links with self-loops, and
// triples whose subject is their own predicate.
func runsStore() *store.Store {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	typ := rdf.NewIRI(rdf.RDFType)
	for c, n := range []int{600, 60, 12} {
		cls := ex(fmt.Sprintf("C%d", c))
		for i := 0; i < n; i++ {
			s := ex(fmt.Sprintf("c%d/i%d", c, i))
			st.AddSPO(s, typ, cls)
			st.AddSPO(s, ex("val"), rdf.NewInteger(int64(i%5)))
			for k := 0; k < i%4; k++ {
				st.AddSPO(s, ex("tag"), rdf.NewLiteral(fmt.Sprintf("t%d", (i+k)%9)))
			}
			st.AddSPO(s, ex("knows"), ex(fmt.Sprintf("c%d/i%d", c, (i*7)%n)))
			if i%10 == 0 {
				st.AddSPO(s, ex("knows"), s)
			}
		}
	}
	for i := 0; i < 3; i++ {
		p := ex(fmt.Sprintf("self%d", i))
		for k := 0; k < 4; k++ {
			st.AddSPO(p, p, rdf.NewInteger(int64(k)))
		}
		st.AddSPO(p, ex("other"), p)
	}
	return st
}

// runQueries cover every fold and every place a run is taken apart.
var runQueries = []string{
	// the hash-group: keyed on a shared position and on the run's variable
	`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/val> ?v }`,
	`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`,
	`SELECT ?v (COUNT(*) AS ?n) (COUNT(?s) AS ?m) (COUNT(DISTINCT ?s) AS ?d) (SAMPLE(?s) AS ?x) (GROUP_CONCAT(STR(?s)) AS ?g) (SUM(?v) AS ?sum) WHERE { ?s <http://ex/val> ?v } GROUP BY ?v`,
	`SELECT ?s (COUNT(*) AS ?n) (COUNT(?t) AS ?m) (SAMPLE(?t) AS ?x) (GROUP_CONCAT(?t) AS ?g) WHERE { ?s <http://ex/tag> ?t } GROUP BY ?s`,
	`SELECT ?t (COUNT(?s) AS ?n) (COUNT(DISTINCT ?s) AS ?d) (GROUP_CONCAT(STR(?s); SEPARATOR="|") AS ?g) WHERE { ?s <http://ex/tag> ?t } GROUP BY ?t`,
	`SELECT ?p (COUNT(?o) AS ?n) (SUM(?o) AS ?sum) WHERE { ?s a <http://ex/C1> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s a <http://ex/C2> OPTIONAL { ?s <http://ex/tag> ?t } } GROUP BY ?s`,
	`SELECT ?v (COUNT(?s) AS ?n) WHERE { ?s <http://ex/val> ?v } GROUP BY ?v HAVING (COUNT(?s) > 100)`,
	`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s <http://ex/val> ?v }`,
	// DISTINCT and REDUCED, the run's variable projected and not
	`SELECT DISTINCT ?p WHERE { ?s a <http://ex/C0> . ?s ?p ?o }`,
	`SELECT DISTINCT ?p ?o WHERE { ?s a <http://ex/C1> . ?s ?p ?o }`,
	`SELECT REDUCED ?p WHERE { ?s a <http://ex/C0> . ?s ?p ?o }`,
	`SELECT DISTINCT ?v WHERE { ?s <http://ex/val> ?v } LIMIT 3 OFFSET 1`,
	`SELECT DISTINCT ?s WHERE { ?s <http://ex/val> ?v }`,
	`SELECT DISTINCT (?v + 1 AS ?w) WHERE { ?s <http://ex/val> ?v }`,
	`SELECT DISTINCT ?v (STRLEN(STR(?s)) AS ?l) WHERE { ?s <http://ex/val> ?v }`,
	// top-k: one key per run, ties within and across runs, windows
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v LIMIT 10`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY DESC(?v) LIMIT 150 OFFSET 7`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY DESC(?v < 3) LIMIT 200`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v ?s LIMIT 10`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v LIMIT 0`,
	`SELECT ?s ?t WHERE { ?s <http://ex/tag> ?t } ORDER BY DESC(?t) LIMIT 25`,
	`SELECT ?s (?v * 2 AS ?w) WHERE { ?s <http://ex/val> ?v } ORDER BY ?w LIMIT 5`,
	`SELECT ?s (STRLEN(STR(?s)) AS ?w) WHERE { ?s <http://ex/val> ?v } ORDER BY DESC(?w) LIMIT 5`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v`,
	// repeated variables
	`SELECT ?x ?p WHERE { ?x ?p ?x }`,
	`SELECT ?s ?o WHERE { ?s ?s ?o }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?x <http://ex/knows> ?x }`,
	`SELECT ?x (COUNT(?p) AS ?n) WHERE { ?x ?p ?x } GROUP BY ?x`,
	// what must take a run apart
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v FILTER(?s != <http://ex/c0/i3>) }`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v FILTER(?v > 2) }`,
	`SELECT ?v (COUNT(?s) AS ?n) WHERE { ?s <http://ex/val> ?v FILTER(STRENDS(STR(?s), "7")) } GROUP BY ?v`,
	`SELECT ?s ?v ?t WHERE { ?s <http://ex/val> ?v OPTIONAL { ?s <http://ex/tag> ?t } }`,
	`SELECT ?s ?w WHERE { ?s <http://ex/val> ?v BIND(?v * 2 AS ?w) }`,
	`SELECT ?v (COUNT(?w) AS ?n) WHERE { ?s <http://ex/val> ?v BIND(STR(?s) AS ?w) } GROUP BY ?v`,
	`SELECT DISTINCT ?v WHERE { ?s <http://ex/val> ?v MINUS { ?s <http://ex/tag> ?t } }`,
	`SELECT ?x WHERE { { ?x <http://ex/val> 1 } UNION { ?x <http://ex/tag> "t3" } }`,
	`SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } LIMIT 70`,
	`CONSTRUCT { ?s <http://ex/v2> ?v } WHERE { ?s <http://ex/val> ?v } LIMIT 90`,
}

// TestRunsFoldLikeRows: on a memory store and on a disk store with the
// same IDs, every query answers exactly — rows, order, SAMPLE, the order
// GROUP_CONCAT concatenates in, the rows a window keeps on a tie — what
// the same executor answers when the store hands it runs one ID at a
// time, and agrees with the reference evaluator.
func TestRunsFoldLikeRows(t *testing.T) {
	mem := runsStore()
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	drain := func(t *testing.T, q *sparql.Query, st store.Queryable) *sparql.Result {
		t.Helper()
		rs, err := q.Stream(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rs.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var onMemory [][]string
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
		t.Run(tier.name, func(t *testing.T) {
			for i, text := range runQueries {
				q := sparql.MustParse(text)
				got := drain(t, q, tier.st)
				rows := drain(t, q, singly{tier.st})
				gk, rk := rowKeysInOrder(got), rowKeysInOrder(rows)
				if g1, _ := graphKey(got.Graph); got.Graph != nil {
					g2, _ := graphKey(rows.Graph)
					gk, rk = []string{g1}, []string{g2}
				}
				if !slices.Equal(gk, rk) {
					t.Fatalf("%s\nfolded runs: %d rows %.300q\nrow by row:  %d rows %.300q", text, len(gk), gk, len(rk), rk)
				}
				if len(gk) == 0 && q.Limit != 0 {
					t.Fatalf("%s: no rows; the query is meant to produce some", text)
				}
				if tier.name == "memory" {
					onMemory = append(onMemory, gk)
				} else if !slices.Equal(gk, onMemory[i]) {
					t.Fatalf("%s\ndisk:   %.300q\nmemory: %.300q", text, gk, onMemory[i])
				}
				want, err := reference.Exec(q, tier.st)
				if err != nil {
					t.Fatal(err)
				}
				compareEngines(t, text, q, "stream", got, want, false)
			}
		})
	}
}

// TestProbesDoNotAllocatePerSubject: a join probes its second pattern
// once per subject of the first, and a probe allocates nothing — the
// store callback is bound once per pipeline level, and the disk tier
// builds a probe's key prefix in its cursor — so the allocations of
// DISTINCT ?p over a class do not grow with the class, on either tier.
func TestProbesDoNotAllocatePerSubject(t *testing.T) {
	mem := runsStore()
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
		allocs := func(class string) float64 {
			q := sparql.MustParse(`SELECT DISTINCT ?p WHERE { ?s a <http://ex/` + class + `> . ?s ?p ?o }`)
			return testing.AllocsPerRun(20, func() {
				rs, err := q.Stream(context.Background(), tier.st)
				if err != nil {
					t.Fatal(err)
				}
				for range rs.Terms() {
				}
			})
		}
		big, small := allocs("C0"), allocs("C1") // 600 and 60 subjects
		if big-small >= 8 {
			t.Errorf("%s: DISTINCT ?p allocates %.0f times over 600 subjects and %.0f over 60: a probe allocates", tier.name, big, small)
		}
	}
}

// TestGroupCountsSolutionsNotRuns: hbold_stream_op_rows_total counts the
// solutions a streaming operator consumed; a folded run adds its length.
func TestGroupCountsSolutionsNotRuns(t *testing.T) {
	st := runsStore()
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	rs, err := sparql.StreamExec(ctx, st, `SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`)
	if err != nil {
		t.Fatal(err)
	}
	for range rs.Terms() {
	}
	typed := st.Count(store.Pattern{P: rdf.NewIRI(rdf.RDFType)})
	got := reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With("hash-group").Value()
	if int(got) != typed {
		t.Fatalf("hbold_stream_op_rows_total{op=hash-group} = %v, want the %d rdf:type triples", got, typed)
	}
}
