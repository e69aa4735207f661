package disk_test

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
	"repro/internal/store/disk"
	"repro/internal/synth"
	"repro/internal/turtle"
)

// This file is the tier differential: the same corpus loaded into the
// in-memory store and into the disk backend must yield the same results
// on every engine. The disk store is populated with CopyFrom, which
// preserves the memory tier's ID assignment, so the two tiers are
// bit-compatible views — any divergence is a storage-layer bug, not an
// artifact of dictionary order.

const diffFixture = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:alice ex:knows ex:bob, ex:carol .
ex:bob ex:knows ex:carol .
ex:carol ex:knows ex:alice .
ex:alice ex:name "Alice" ; ex:age "34"^^xsd:integer .
ex:bob ex:name "Bob"@en ; ex:age "29"^^xsd:integer .
ex:carol ex:name "Carol" ; ex:age "34"^^xsd:integer .
ex:dave ex:name "Dave" .
ex:alice ex:worksAt ex:acme .
ex:bob ex:worksAt ex:acme .
ex:carol ex:worksAt ex:initech .
ex:acme ex:city "Springfield" .
ex:initech ex:city "Springfield" .
`

var diffQueries = []string{
	`SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }`,
	`SELECT ?s WHERE { ?s ?p ?o }`,
	`SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
	`SELECT ?s ?n WHERE { ?s <http://example.org/name> ?n } ORDER BY ?n`,
	`SELECT ?s ?a WHERE { ?s <http://example.org/age> ?a } ORDER BY DESC(?a) ?s`,
	`SELECT ?s WHERE { ?s <http://example.org/knows> ?o . ?o <http://example.org/knows> ?s }`,
	`SELECT ?s ?c WHERE { ?s <http://example.org/worksAt> ?w . ?w <http://example.org/city> ?c }`,
	`SELECT ?s ?n WHERE { ?s <http://example.org/age> ?a . OPTIONAL { ?s <http://example.org/name> ?n } }`,
	`SELECT ?s WHERE { { ?s <http://example.org/knows> <http://example.org/bob> } UNION { ?s <http://example.org/worksAt> <http://example.org/initech> } }`,
	`SELECT ?s ?a WHERE { ?s <http://example.org/age> ?a . FILTER(?a > 30) }`,
	`SELECT ?s WHERE { ?s <http://example.org/name> ?n . FILTER(LANG(?n) = "en") }`,
	`SELECT ?s WHERE { ?s ?p ?o } LIMIT 3`,
	`SELECT ?s ?n WHERE { ?s <http://example.org/name> ?n } ORDER BY ?n LIMIT 2 OFFSET 1`,
	`SELECT ?a (COUNT(?s) AS ?c) WHERE { ?s <http://example.org/age> ?a } GROUP BY ?a`,
	`SELECT (COUNT(*) AS ?c) WHERE { ?s <http://example.org/knows> ?o }`,
	`ASK { <http://example.org/alice> <http://example.org/knows> <http://example.org/bob> }`,
	`ASK { <http://example.org/dave> <http://example.org/knows> ?o }`,
	`CONSTRUCT { ?o <http://example.org/knownBy> ?s } WHERE { ?s <http://example.org/knows> ?o }`,
}

// tierPair loads the same corpus into both tiers with identical IDs.
func tierPair(t *testing.T, mem *store.Store) (*store.Store, *disk.Store) {
	t.Helper()
	ds := openT(t, t.TempDir())
	t.Cleanup(func() { ds.Close() })
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	return mem, ds
}

// runEngines executes q on st through the executor's two drains and the
// reference evaluator.
func runEngines(t *testing.T, q *sparql.Query, st store.Queryable) map[string]*sparql.Result {
	t.Helper()
	out := map[string]*sparql.Result{}
	rs, err := q.Stream(context.Background(), st)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if out["stream"], err = rs.Collect(); err != nil {
		t.Fatalf("stream collect: %v", err)
	}
	if out["exec"], err = q.Exec(st); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if out["reference"], err = reference.Exec(q, st); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return out
}

func rowString(vars []string, b sparql.Binding) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(v)
			sb.WriteByte('=')
			sb.WriteString(t.String())
		}
		sb.WriteByte('\t')
	}
	return sb.String()
}

func sortedRows(vars []string, rows []sparql.Binding) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowString(vars, r)
	}
	sort.Strings(out)
	return out
}

func graphLines(g *rdf.Graph) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, tr := range g.Triples() {
		out = append(out, tr.S.String()+" "+tr.P.String()+" "+tr.O.String())
	}
	sort.Strings(out)
	return out
}

// compareTiers asserts one engine produced equivalent results on both
// tiers. Row multisets must match exactly; for ordered queries the
// ORDER BY key sequences must match too (tie order inside equal keys is
// an engine freedom, not a tier property); a LIMIT without ORDER BY
// only pins the row count.
func compareTiers(t *testing.T, q *sparql.Query, engine, query string, memRes, diskRes *sparql.Result) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: tiers diverge on %q: %s", engine, query, fmt.Sprintf(format, args...))
	}
	if memRes.Ask != diskRes.Ask || memRes.Boolean != diskRes.Boolean {
		fail("ask/boolean: mem (%v, %v) vs disk (%v, %v)", memRes.Ask, memRes.Boolean, diskRes.Ask, diskRes.Boolean)
	}
	if mg, dg := graphLines(memRes.Graph), graphLines(diskRes.Graph); len(mg) != len(dg) {
		fail("graph sizes: mem %d vs disk %d", len(mg), len(dg))
	} else {
		for i := range mg {
			if mg[i] != dg[i] {
				fail("graph triple %d: mem %q vs disk %q", i, mg[i], dg[i])
			}
		}
	}
	if strings.Join(memRes.Vars, ",") != strings.Join(diskRes.Vars, ",") {
		fail("vars: mem %v vs disk %v", memRes.Vars, diskRes.Vars)
	}
	if len(memRes.Rows) != len(diskRes.Rows) {
		fail("row counts: mem %d vs disk %d", len(memRes.Rows), len(diskRes.Rows))
	}
	windowed := q.Limit >= 0 || q.Offset > 0
	if len(q.OrderBy) > 0 {
		for i := range memRes.Rows {
			mk := reference.OrderKeyOf(q.OrderBy, memRes.Rows[i])
			dk := reference.OrderKeyOf(q.OrderBy, diskRes.Rows[i])
			if sparql.CompareOrderKeys(q.OrderBy, mk, dk) != 0 {
				fail("ORDER BY key at row %d differs", i)
			}
		}
	}
	if windowed && len(q.OrderBy) == 0 {
		return // any n rows are a valid window; counts already matched
	}
	if windowed {
		return // ordered window: key sequence pinned above; tie cut is engine freedom
	}
	mr, dr := sortedRows(memRes.Vars, memRes.Rows), sortedRows(diskRes.Vars, diskRes.Rows)
	for i := range mr {
		if mr[i] != dr[i] {
			fail("row multiset differs, first at %d:\n mem  %q\n disk %q", i, mr[i], dr[i])
		}
	}
}

func runDifferential(t *testing.T, mem *store.Store, ds *disk.Store, queries []string) {
	t.Helper()
	for _, query := range queries {
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		memRes := runEngines(t, q, mem)
		diskRes := runEngines(t, q, ds)
		for _, engine := range []string{"stream", "exec", "reference"} {
			compareTiers(t, q, engine, query, memRes[engine], diskRes[engine])
		}
	}
}

func TestDifferentialFixedCorpus(t *testing.T) {
	g, err := turtle.Parse(diffFixture)
	if err != nil {
		t.Fatal(err)
	}
	mem, ds := tierPair(t, store.FromGraph(g))
	runDifferential(t, mem, ds, diffQueries)
}

// TestDifferentialRandomized fuzzes the tier pair over synthetic corpora
// with generated queries, across both drains and the reference.
func TestDifferentialRandomized(t *testing.T) {
	specs := []synth.Spec{
		{Name: "tiera", Classes: 6, Instances: 200, ObjectProps: 10,
			DataProps: 5, LinkFactor: 2, CommunitySeeds: 2, Seed: 21},
		{Name: "tierb", Classes: 3, Instances: 80, ObjectProps: 5,
			DataProps: 3, LinkFactor: 1, Seed: 33},
	}
	perStore := 60
	if testing.Short() {
		perStore = 15
	}
	for si, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			mem, ds := tierPair(t, synth.Generate(spec))
			gen := synth.NewQueryGen(mem, int64(500+si))
			queries := make([]string, 0, perStore)
			for i := 0; i < perStore; i++ {
				queries = append(queries, gen.Query())
			}
			runDifferential(t, mem, ds, queries)
		})
	}
}

// TestDifferentialInsertPath loads the fixture through the plain Insert
// path (fresh dictionary, IDs in whatever order the disk tier assigns)
// and checks that engine results still agree as multisets — result
// correctness must not depend on ID assignment.
func TestDifferentialInsertPath(t *testing.T) {
	g, err := turtle.Parse(diffFixture)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.FromGraph(g)
	ds := openT(t, t.TempDir())
	defer ds.Close()
	// Insert in reverse so the disk dictionary genuinely differs.
	trs := g.Triples()
	for i := len(trs) - 1; i >= 0; i-- {
		mustInsert(t, ds, trs[i])
	}
	// queries run on Snapshot, which serves committed state only
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	runDifferential(t, mem, ds, diffQueries)
}
