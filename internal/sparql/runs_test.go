package sparql_test

// Leaves and runs are the executor's units: the store hands over whole
// postings leaves, the last pattern of a join hands a leaf whole to the
// streaming DISTINCT sink and the plain-count hash-group, and each other
// key's run whole to every sink, and the grouped, DISTINCT and top-k
// sinks fold what they get. These tests hold the folds to what the rows
// would give one at a time, and one run per key — in the same order, on
// both tiers — and to the reference evaluator.

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
	"repro/internal/synth"
)

// singly is a store whose reads hand every run on one ID at a time, so
// the executor folds nothing: per-row semantics, in the same order.
type singly struct{ store.Queryable }

func (s singly) Snapshot() store.ReaderAPI { return singlyReader{s.Queryable.Snapshot()} }

type singlyReader struct{ store.ReaderAPI }

func (r singlyReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	return r.ReaderAPI.Runs(pat, func(rn store.Run) bool {
		return rn.Singles(fn)
	})
}

func (r singlyReader) Release() { release(r.ReaderAPI) }

// keyed is a store whose reads hand every leaf on one key at a time, as
// a leaf of one key: the executor folds runs but no leaf.
type keyed struct{ store.Queryable }

func (s keyed) Snapshot() store.ReaderAPI { return keyedReader{s.Queryable.Snapshot()} }

type keyedReader struct{ store.ReaderAPI }

func (r keyedReader) Runs(pat store.IDPattern, fn func(store.Run) bool) error {
	return r.ReaderAPI.Runs(pat, func(rn store.Run) bool {
		for i := range rn.Keys {
			one := rn
			one.Keys, one.Ends, one.IDs = rn.Keys[i:i+1], nil, rn.List(i)
			if !fn(one) {
				return false
			}
		}
		return true
	})
}

func (r keyedReader) Release() { release(r.ReaderAPI) }

func release(rd store.ReaderAPI) {
	if rd, ok := rd.(interface{ Release() }); ok {
		rd.Release()
	}
}

// runsStore has long runs on every index: 600 instances of ex:C0 (and
// fewer of C1, C2), one of five ex:val values each — past the disk
// tier's run bound, so a run of equal keys is cut in two there — one to
// three ex:tag values on most, ex:knows links with self-loops, and
// triples whose subject is their own predicate. Consecutive instances
// have equal predicate sets (those with tags) and different ones. Three
// instances of ex:W have SPO postings that span several leaves on both
// tiers: w0 and w1 have the same 70 predicates and different objects,
// w2 700 objects under one of them.
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
		w := ex(fmt.Sprintf("w%d", i))
		st.AddSPO(w, typ, ex("W"))
		for k := 0; k < 70; k++ {
			if i < 2 {
				st.AddSPO(w, ex(fmt.Sprintf("p%02d", k)), rdf.NewInteger(int64(i*100+k)))
			} else {
				st.AddSPO(w, ex("p07"), rdf.NewInteger(int64(k)))
			}
		}
		for k := 70; i == 2 && k < 700; k++ {
			st.AddSPO(w, ex("p07"), rdf.NewInteger(int64(k)))
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
	// whole leaves: the predicates of a class, over equal and different
	// predicate sets, leaves cut within a subject and within a list, a
	// second projected slot or group key that differs between leaves with
	// equal keys, windows, and leaves under OPTIONAL and UNION
	`SELECT DISTINCT ?p WHERE { ?s a <http://ex/W> . ?s ?p ?o }`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o }`,
	`SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
	`SELECT DISTINCT ?s ?p WHERE { ?s a <http://ex/W> . ?s ?p ?o }`,
	`SELECT DISTINCT ?p ?v WHERE { ?s a <http://ex/C0> . ?s <http://ex/val> ?v . ?s ?p ?o }`,
	`SELECT DISTINCT ?p WHERE { ?s a <http://ex/C0> . ?s ?p ?o } LIMIT 2 OFFSET 1`,
	`SELECT DISTINCT ?p WHERE { ?s a <http://ex/W> . ?s ?p ?o } LIMIT 50 OFFSET 10`,
	`SELECT REDUCED ?p WHERE { ?s a <http://ex/W> . ?s ?p ?o } OFFSET 65`,
	`SELECT DISTINCT ?p (STR(?s) AS ?x) WHERE { ?s a <http://ex/C2> . ?s ?p ?o }`,
	`SELECT DISTINCT ?p WHERE { { ?s a <http://ex/C2> . ?s ?p ?o } UNION { ?s a <http://ex/W> . ?s ?p ?o } }`,
	`SELECT ?p (COUNT(?o) AS ?n) (COUNT(*) AS ?m) WHERE { ?s a <http://ex/C0> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?p (COUNT(?o) AS ?n) (COUNT(*) AS ?m) WHERE { ?s a <http://ex/W> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?p (COUNT(DISTINCT ?o) AS ?d) (SAMPLE(?o) AS ?x) WHERE { ?s a <http://ex/W> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?p (COUNT(DISTINCT ?o) AS ?d) (SAMPLE(?o) AS ?x) WHERE { ?s a <http://ex/C0> . ?s ?p ?o } GROUP BY ?p`,
	`SELECT ?c ?p (COUNT(*) AS ?n) WHERE { ?s a ?c . ?s ?p ?o } GROUP BY ?c ?p`,
	`SELECT ?v ?p (COUNT(?o) AS ?n) WHERE { ?s <http://ex/val> ?v . ?s ?p ?o } GROUP BY ?v ?p`,
	`SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`,
	`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/W> . ?s ?p ?o } GROUP BY ?p HAVING (COUNT(?o) > 1)`,
	`SELECT ?p (COUNT(*) AS ?n) WHERE { ?x a <http://ex/C2> OPTIONAL { ?x ?p ?o } } GROUP BY ?p`,
	`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/W> . ?s ?p ?o FILTER isLiteral(?o) } GROUP BY ?p`,
	`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/C0> . ?s ?p ?o } GROUP BY ?p ORDER BY DESC(?n) LIMIT 3`,
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
	// kind tests of the run's variable keep a run whole, filtered into a
	// run of its own, nested groups included; any other FILTER on it
	// takes the run apart
	`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/C0> . ?s ?p ?o FILTER isLiteral(?o) } GROUP BY ?p`,
	`SELECT DISTINCT ?p WHERE { ?s a <http://ex/C1> . ?s ?p ?o FILTER(!isLiteral(?o)) } ORDER BY ?p`,
	`SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o FILTER isIRI(?o) FILTER(?s != <http://ex/c0/i0>) } LIMIT 40`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o FILTER isLiteral(?o) FILTER(!isIRI(?o)) FILTER(!isBlank(?o)) }`,
	`SELECT ?s ?o WHERE { ?s ?p ?o FILTER isLiteral(?o) FILTER(?o != 3) } ORDER BY ?o LIMIT 7`,
	`SELECT ?o (COUNT(*) AS ?n) WHERE { ?s <http://ex/tag> ?o FILTER isIRI(?s) } GROUP BY ?o`,
	`SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?o) AS ?d) WHERE { { ?s ?p ?o FILTER(!isIRI(?o)) } FILTER isLiteral(?o) }`,
	`SELECT ?s ?t WHERE { ?s a <http://ex/C2> OPTIONAL { ?s <http://ex/tag> ?t FILTER isLiteral(?t) } FILTER(!BOUND(?t) || isNumeric(?t) || isLiteral(?t)) }`,
	`SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o FILTER(?s = ?o) }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/knows> ?o FILTER(!sameTerm(?s, ?o)) }`,
	`SELECT ?s ?v WHERE { ?s ?p ?v FILTER(isNumeric(?v) && ?v = ?v) } ORDER BY ?s ?v LIMIT 9`,
	`SELECT ?s ?x WHERE { ?s <http://ex/val> ?v FILTER(CONCAT() || !CONCAT()) BIND(IF(CONCAT(), 1, 2) AS ?x) }`,
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
// the same executor answers when the store hands it one run per key, and
// one ID at a time, and agrees with the reference evaluator.
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
				gk := keysOf(got)
				for _, other := range []struct {
					name string
					st   store.Queryable
				}{{"one run per key", keyed{tier.st}}, {"row by row", singly{tier.st}}} {
					if rk := keysOf(drain(t, q, other.st)); !slices.Equal(gk, rk) {
						t.Fatalf("%s\nfolded leaves: %d rows %.300q\n%s: %d rows %.300q", text, len(gk), gk, other.name, len(rk), rk)
					}
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

// keysOf is a result's rows in order, or its graph.
func keysOf(res *sparql.Result) []string {
	if res.Graph != nil {
		g, _ := graphKey(res.Graph)
		return []string{g}
	}
	return rowKeysInOrder(res)
}

// TestProbesDoNotAllocatePerSubject: a join probes its second pattern
// once per subject of the first, and a probe allocates nothing — the
// store callback is bound once per pipeline level, and the disk tier
// builds a probe's key prefix in its cursor — and a leaf handed to the
// sink whole is the store's, bound into the row in place, so the
// allocations of DISTINCT ?p, or of COUNT … GROUP BY ?p, over a class do
// not grow with the class, on either tier.
//
// The disk tier is filled through Insert and one Flush, so every key
// sits in the memtable and the test counts probes alone. Seeded by
// CopyFrom, the keys would sit in a segment, and the `?s a <C0>` scan
// that feeds the probes would read on past block ends, each block a
// fresh buffer by design (kv/segment.go): allocations that grow with
// the class without coming from a probe.
func TestProbesDoNotAllocatePerSubject(t *testing.T) {
	mem := runsStore()
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	mem.Match(store.Pattern{}, func(tr rdf.Triple) bool {
		_, err = ds.Insert(tr)
		return err == nil
	})
	if err == nil {
		err = ds.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := ds.KVStats(); st.Segments != 0 || ds.Len() != mem.Len() {
		t.Fatalf("the disk tier holds %d of %d triples, in %d segments; want all, in the memtable", ds.Len(), mem.Len(), st.Segments)
	}
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
		for _, shape := range []string{
			`SELECT DISTINCT ?p WHERE { ?s a <http://ex/%s> . ?s ?p ?o }`,
			`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/%s> . ?s ?p ?o } GROUP BY ?p`,
		} {
			allocs := func(class string) float64 {
				q := sparql.MustParse(fmt.Sprintf(shape, class))
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
				t.Errorf("%s: %s allocates %.0f times over 600 subjects and %.0f over 60: a probe allocates", tier.name, shape, big, small)
			}
		}
	}
}

// TestGroupCountsSolutionsNotRuns: hbold_stream_op_rows_total counts the
// solutions a streaming operator consumed; a folded run adds its length,
// and a folded leaf the length of all its lists.
func TestGroupCountsSolutionsNotRuns(t *testing.T) {
	st := runsStore()
	typ := rdf.NewIRI(rdf.RDFType)
	c0 := rdf.NewIRI("http://ex/C0")
	for _, c := range []struct {
		query string
		want  int
	}{
		{`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`, st.Count(store.Pattern{P: typ})},
		{`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <http://ex/C0> . ?s ?p ?o } GROUP BY ?p`, func() (n int) {
			st.Match(store.Pattern{P: typ, O: c0}, func(tr rdf.Triple) bool {
				n += st.Count(store.Pattern{S: tr.S})
				return true
			})
			return n
		}()},
	} {
		fc, err := sparql.FoldCounts(sparql.MustParse(c.query), st)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Leaves == 0 {
			t.Fatalf("%s: no leaf folded (%+v)", c.query, fc)
		}
		reg := obs.NewRegistry()
		ctx := obs.WithRegistry(context.Background(), reg)
		rs, err := sparql.StreamExec(ctx, st, c.query)
		if err != nil {
			t.Fatal(err)
		}
		for range rs.Terms() {
		}
		got := reg.CounterVec("hbold_stream_op_rows_total", "Rows consumed by streaming operators.", "op").With("hash-group").Value()
		if int(got) != c.want {
			t.Fatalf("%s: hbold_stream_op_rows_total{op=hash-group} = %v, want the %d solutions", c.query, got, c.want)
		}
	}
}

// TestLeavesFoldOnTheBenchCorpus: over the benchmark's corpus
// (synth.DefaultSpec("bench", 1)), whose Class10 has 925 instances with
// the same 9 predicates each, the predicates of the class cost one sink
// call per instance and one probe per predicate, on both tiers, where
// one run per key costs one of each per (instance, predicate) — and the
// answers are the same rows in the same order.
func TestLeavesFoldOnTheBenchCorpus(t *testing.T) {
	mem := synth.Generate(synth.DefaultSpec("bench", 1))
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	const class = `<http://bench.example.org/onto#Class10>`
	queries := []string{
		`SELECT DISTINCT ?p WHERE { ?s a ` + class + ` . ?s ?p ?o }`,
		`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a ` + class + ` . ?s ?p ?o } GROUP BY ?p`,
	}
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
		for _, text := range queries {
			q := sparql.MustParse(text)
			leaves, err := sparql.FoldCounts(q, tier.st)
			if err != nil {
				t.Fatal(err)
			}
			runs, err := sparql.FoldCounts(q, keyed{tier.st})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %s\n\tleaves: %+v\n\tone run per key: %+v", tier.name, text, leaves, runs)
			if want := (sparql.FoldCount{Leaves: 925, Adds: 9}); leaves != want {
				t.Errorf("%s %s: %+v, want %+v", tier.name, text, leaves, want)
			}
			if want := (sparql.FoldCount{Runs: 8325, Adds: 8325}); runs != want {
				t.Errorf("%s %s, one run per key: %+v, want %+v", tier.name, text, runs, want)
			}
			got, err := sparql.Exec(tier.st, text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sparql.Exec(singly{tier.st}, text)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowKeysInOrder(got), rowKeysInOrder(want); len(g) != 9 || !slices.Equal(g, w) {
				t.Errorf("%s %s\n\tfolded leaves: %q\n\trow by row:    %q", tier.name, text, g, w)
			}
		}
	}
}
