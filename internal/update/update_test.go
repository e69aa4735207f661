package update_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/update"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// backends returns both tiers pre-loaded with the same fixture.
func backends(t *testing.T) map[string]store.Backend {
	t.Helper()
	out := map[string]store.Backend{}
	for _, name := range []string{"memory", "disk"} {
		var be store.Backend
		if name == "memory" {
			be = store.New()
		} else {
			ds, err := disk.Open(t.TempDir(), disk.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			be = ds
		}
		seed := []rdf.Triple{
			rdf.NewTriple(iri("alice"), iri("knows"), iri("bob")),
			rdf.NewTriple(iri("bob"), iri("knows"), iri("carol")),
			rdf.NewTriple(iri("alice"), iri("age"), rdf.NewInteger(34)),
			rdf.NewTriple(iri("bob"), iri("age"), rdf.NewInteger(29)),
		}
		for _, tr := range seed {
			if _, err := be.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := be.Flush(); err != nil {
			t.Fatal(err)
		}
		out[name] = be
	}
	return out
}

func apply(t *testing.T, be store.Backend, text string) *update.Delta {
	t.Helper()
	d, err := update.ApplyText(context.Background(), be, text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func count(t *testing.T, be store.Backend, query string) int {
	t.Helper()
	res, err := sparql.Exec(be, query)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

func TestInsertDataBothTiers(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d := apply(t, be, `PREFIX ex: <http://ex/>
				INSERT DATA { ex:carol ex:knows ex:alice . ex:alice ex:knows ex:bob }`)
			if len(d.Added) != 1 || len(d.Removed) != 0 {
				t.Fatalf("delta = +%d -%d, want +1 -0 (one triple pre-existing)", len(d.Added), len(d.Removed))
			}
			if got := count(t, be, `SELECT ?s WHERE { ?s <http://ex/knows> ?o }`); got != 3 {
				t.Fatalf("knows rows = %d, want 3", got)
			}
			if be.Len() != 5 {
				t.Fatalf("Len = %d, want 5", be.Len())
			}
		})
	}
}

func TestDeleteDataBothTiers(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d := apply(t, be, `PREFIX ex: <http://ex/>
				DELETE DATA { ex:alice ex:knows ex:bob . ex:alice ex:knows ex:nobody }`)
			if len(d.Removed) != 1 || len(d.Added) != 0 {
				t.Fatalf("delta = +%d -%d, want +0 -1 (one triple absent)", len(d.Added), len(d.Removed))
			}
			if got := count(t, be, `SELECT ?s WHERE { ?s <http://ex/knows> ?o }`); got != 1 {
				t.Fatalf("knows rows = %d, want 1", got)
			}
		})
	}
}

func TestDeleteInsertWhereBothTiers(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// Rename the predicate: every ex:knows edge becomes ex:met.
			d := apply(t, be, `PREFIX ex: <http://ex/>
				DELETE { ?s ex:knows ?o } INSERT { ?s ex:met ?o } WHERE { ?s ex:knows ?o }`)
			if len(d.Removed) != 2 || len(d.Added) != 2 {
				t.Fatalf("delta = +%d -%d, want +2 -2", len(d.Added), len(d.Removed))
			}
			if got := count(t, be, `SELECT ?s WHERE { ?s <http://ex/knows> ?o }`); got != 0 {
				t.Fatalf("knows rows = %d, want 0", got)
			}
			if got := count(t, be, `SELECT ?s WHERE { ?s <http://ex/met> ?o }`); got != 2 {
				t.Fatalf("met rows = %d, want 2", got)
			}
		})
	}
}

func TestDeleteWhereShorthand(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			apply(t, be, `DELETE WHERE { <http://ex/alice> ?p ?o }`)
			if got := count(t, be, `SELECT ?o WHERE { <http://ex/alice> ?p ?o }`); got != 0 {
				t.Fatalf("alice rows = %d, want 0", got)
			}
			if got := count(t, be, `SELECT ?o WHERE { <http://ex/bob> ?p ?o }`); got != 2 {
				t.Fatalf("bob rows = %d, want 2", got)
			}
		})
	}
}

func TestModifyWithFilterBindsThroughPlanPath(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d := apply(t, be, `PREFIX ex: <http://ex/>
				DELETE { ?s ex:age ?a } INSERT { ?s ex:senior "yes" } WHERE { ?s ex:age ?a . FILTER(?a > 30) }`)
			if len(d.Removed) != 1 || len(d.Added) != 1 {
				t.Fatalf("delta = +%d -%d, want +1 -1", len(d.Added), len(d.Removed))
			}
			if got := count(t, be, `SELECT ?a WHERE { ?s <http://ex/age> ?a }`); got != 1 {
				t.Fatalf("age rows = %d, want 1", got)
			}
		})
	}
}

func TestSequenceSeesPriorOps(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// The second op's WHERE must see the first op's insert.
			d := apply(t, be, `PREFIX ex: <http://ex/>
				INSERT DATA { ex:dave ex:age 40 } ;
				INSERT { ?s ex:checked "yes" } WHERE { ?s ex:age ?a . FILTER(?a = 40) }`)
			if len(d.Added) != 2 {
				t.Fatalf("delta = +%d, want +2", len(d.Added))
			}
			if got := count(t, be, `SELECT ?s WHERE { <http://ex/dave> <http://ex/checked> "yes" }`); got != 1 {
				t.Fatalf("checked rows = %d, want 1", got)
			}
		})
	}
}

func TestDeleteTheReinsertNetsOut(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			d := apply(t, be, `PREFIX ex: <http://ex/>
				DELETE DATA { ex:alice ex:knows ex:bob } ;
				INSERT DATA { ex:alice ex:knows ex:bob }`)
			if !d.Empty() {
				t.Fatalf("delta = +%d -%d, want empty", len(d.Added), len(d.Removed))
			}
			if got := count(t, be, `SELECT ?o WHERE { <http://ex/alice> <http://ex/knows> ?o }`); got != 1 {
				t.Fatalf("rows = %d, want 1", got)
			}
		})
	}
}

func TestUnboundTemplateVarSkipsInstantiation(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// ?n is only bound where a name exists; no names in the
			// fixture, so OPTIONAL leaves ?n unbound and nothing inserts.
			d := apply(t, be, `PREFIX ex: <http://ex/>
				INSERT { ?s ex:label ?n } WHERE { ?s ex:age ?a . OPTIONAL { ?s ex:name ?n } }`)
			if len(d.Added) != 0 {
				t.Fatalf("delta = +%d, want +0", len(d.Added))
			}
		})
	}
}

// cardRequest gives every subject with an age a card: one blank node per
// solution.
const cardRequest = `PREFIX ex: <http://ex/>
	INSERT { ?s ex:card _:b . _:b ex:of ?s } WHERE { ?s ex:age ?a }`

func distinctCards(t *testing.T, be store.Backend) int {
	t.Helper()
	return count(t, be, `SELECT DISTINCT ?b WHERE { ?s <http://ex/card> ?b }`)
}

// TestInsertBlankNodesFreshPerSolution: a template's blank node is a new
// node per solution, and new to the store — a second request, or an
// INSERT DATA, never reuses a node an earlier request minted.
func TestInsertBlankNodesFreshPerSolution(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			apply(t, be, cardRequest)
			// Two solutions → two distinct blank nodes → 4 triples. Each
			// later case reports on its own (Errorf), so each shows.
			if got := distinctCards(t, be); got != 2 {
				t.Errorf("distinct blanks = %d, want 2", got)
			}
			// the same request again: two more nodes, not the first two
			apply(t, be, cardRequest)
			if got := distinctCards(t, be); got != 4 {
				t.Errorf("after the repeat: distinct blanks = %d, want 4", got)
			}
			// a third request's node is nobody else's card
			apply(t, be, `PREFIX ex: <http://ex/>
				INSERT { ex:zed ex:card _:b } WHERE { ex:alice ex:age ?a }`)
			if got := count(t, be, `SELECT DISTINCT ?s WHERE { ?s <http://ex/card> ?b . <http://ex/zed> <http://ex/card> ?b }`); got != 1 {
				t.Errorf("holders of ex:zed's card = %d, want 1", got)
			}
			// INSERT DATA's blank nodes are fresh too (SPARQL 1.1 Update
			// §3.1.1), whatever label the document gives them
			for i := 0; i < 2; i++ {
				apply(t, be, `PREFIX ex: <http://ex/> INSERT DATA { ex:yan ex:card _:b . ex:yan ex:card _:u0_b }`)
			}
			if got := count(t, be, `SELECT ?b WHERE { <http://ex/yan> <http://ex/card> ?b }`); got != 4 {
				t.Errorf("ex:yan's cards = %d, want 4", got)
			}
			if got := count(t, be, `SELECT DISTINCT ?s WHERE { ?s <http://ex/card> ?b . <http://ex/yan> <http://ex/card> ?b }`); got != 1 {
				t.Errorf("holders of ex:yan's cards = %d, want 1", got)
			}
		})
	}
	t.Run("disk reopen", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := disk.Open(dir, disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		apply(t, ds, `PREFIX ex: <http://ex/> INSERT DATA { ex:alice ex:age 34 . ex:bob ex:age 29 }`)
		apply(t, ds, cardRequest)
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := disk.Open(dir, disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		apply(t, re, cardRequest)
		if got := distinctCards(t, re); got != 4 {
			t.Fatalf("after a reopen and the repeat: distinct blanks = %d, want 4", got)
		}
	})
}

func TestLiteralSubjectInstantiationSkipped(t *testing.T) {
	for name, be := range backends(t) {
		t.Run(name, func(t *testing.T) {
			// ?a binds to a literal; using it as subject is invalid and
			// the instantiation is skipped, not an error.
			d := apply(t, be, `PREFIX ex: <http://ex/>
				INSERT { ?a ex:seen "yes" } WHERE { ?s ex:age ?a }`)
			if len(d.Added) != 0 {
				t.Fatalf("delta = +%d, want +0", len(d.Added))
			}
		})
	}
}

func TestDiskUpdateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(rdf.NewTriple(iri("a"), iri("p"), iri("b"))); err != nil {
		t.Fatal(err)
	}
	apply(t, ds, `PREFIX ex: <http://ex/>
		INSERT DATA { ex:c ex:p ex:d } ;
		DELETE DATA { ex:a ex:p ex:b }`)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
	if got := count(t, re, `SELECT ?o WHERE { <http://ex/c> <http://ex/p> ?o }`); got != 1 {
		t.Fatalf("inserted triple missing after restart")
	}
	if got := count(t, re, `SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`); got != 0 {
		t.Fatalf("deleted triple back after restart")
	}
}

// TestBothTiersConvergeUnderUpdates is the tentpole acceptance check in
// miniature: the same update stream applied to both tiers leaves them
// answering identically on all three engines.
func TestBothTiersConvergeUnderUpdates(t *testing.T) {
	bes := backends(t)
	updates := []string{
		`PREFIX ex: <http://ex/> INSERT DATA { ex:carol ex:age 41 . ex:carol ex:knows ex:alice }`,
		`PREFIX ex: <http://ex/> DELETE { ?s ex:knows ?o } INSERT { ?o ex:knownBy ?s } WHERE { ?s ex:knows ?o . FILTER(?o != ex:carol) }`,
		`PREFIX ex: <http://ex/> DELETE WHERE { ex:bob ?p ?o }`,
		`PREFIX ex: <http://ex/> INSERT { ?s ex:aged ?a } WHERE { ?s ex:age ?a }`,
	}
	for _, be := range bes {
		for _, up := range updates {
			apply(t, be, up)
		}
	}
	queries := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex/knownBy> ?o }`,
		`SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s`,
	}
	for _, query := range queries {
		q := sparql.MustParse(query)
		var want []string
		for _, name := range []string{"memory", "disk"} {
			be := bes[name]
			for engine, run := range map[string]func(store.Queryable) (*sparql.Result, error){"exec": q.Exec, "reference": func(st store.Queryable) (*sparql.Result, error) { return reference.Exec(q, st) }} {
				res, err := run(be)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, engine, err)
				}
				got := canonRows(res)
				if want == nil {
					want = got
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s/%s diverged on %q:\n got %v\nwant %v", name, engine, query, got, want)
				}
			}
			rs, err := q.Stream(context.Background(), be)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rs.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if got := canonRows(res); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/stream diverged on %q:\n got %v\nwant %v", name, query, got, want)
			}
		}
	}
}

func canonRows(res *sparql.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, b := range res.Rows {
		row := ""
		for _, v := range res.Vars {
			if t, ok := b[v]; ok {
				row += v + "=" + t.String() + "\t"
			}
		}
		out = append(out, row)
	}
	sort.Strings(out)
	return out
}

func TestFeedPublishSubscribeReplay(t *testing.T) {
	f := update.NewFeed()
	for i := 0; i < 3; i++ {
		ev := f.Publish(update.Event{Dataset: "http://ex/ds", Added: i})
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", ev.Seq, i+1)
		}
	}
	backlog, ch, cancel := f.Subscribe(1)
	defer cancel()
	if len(backlog) != 2 || backlog[0].Seq != 2 || backlog[1].Seq != 3 {
		t.Fatalf("backlog = %+v, want seqs 2,3", backlog)
	}
	f.Publish(update.Event{Dataset: "http://ex/ds", Added: 9})
	ev := <-ch
	if ev.Seq != 4 || ev.Added != 9 {
		t.Fatalf("live event = %+v", ev)
	}
	if f.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d", f.LastSeq())
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	cancel() // idempotent
}

func TestFeedRingBound(t *testing.T) {
	f := update.NewFeed()
	for i := 0; i < 300; i++ {
		f.Publish(update.Event{})
	}
	backlog, _, cancel := f.Subscribe(0)
	defer cancel()
	if len(backlog) != 256 {
		t.Fatalf("backlog = %d, want 256", len(backlog))
	}
	if backlog[0].Seq != 45 {
		t.Fatalf("oldest retained seq = %d, want 45", backlog[0].Seq)
	}
}

// TestConcurrentRequestsCommitWhole: requests racing on one backend
// commit one after the other, so a reader sees each request whole or not
// at all and the disk tier writes one WAL record per request. Without
// the backend's write lock they would stage into the same pending batch
// and the first Flush would commit half of the other's triples.
func TestConcurrentRequestsCommitWhole(t *testing.T) {
	const writers, perWriter, parts = 4, 15, 32
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	appends := ds.KVStats().WALAppends

	ctx := context.Background()
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				text := "INSERT DATA {"
				for p := 0; p < parts; p++ {
					text += fmt.Sprintf(" <http://ex/req-%d-%d> <http://ex/part> %d .", w, i, p)
				}
				d, err := update.ApplyText(ctx, ds, text+" }")
				if err != nil {
					t.Error(err)
					return
				}
				if len(d.Added) != parts {
					t.Errorf("request %d-%d added %d triples, want %d", w, i, len(d.Added), parts)
				}
			}
		}()
	}
	done := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := sparql.Exec(ds, `SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://ex/part> ?o } GROUP BY ?s`)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					if n := row["n"].Value; n != fmt.Sprint(parts) {
						t.Errorf("a reader saw %s of request %s's %d triples", n, row["s"].Value, parts)
						return
					}
				}
			}
		}()
	}
	// Cardinality commits staged writes before it counts; it must wait
	// for a request in flight rather than commit the half staged so far
	reading.Add(1)
	go func() {
		defer reading.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := ds.Cardinality(store.Pattern{}); n%parts != 0 {
				t.Errorf("Cardinality counted %d triples, not a whole number of %d-triple requests", n, parts)
				return
			}
		}
	}()
	writing.Wait()
	close(done)
	reading.Wait()

	if got := ds.KVStats().WALAppends - appends; got != writers*perWriter {
		t.Fatalf("%d requests made %d WAL records, want one each", writers*perWriter, got)
	}
	if n := count(t, ds, `SELECT ?s WHERE { ?s <http://ex/part> 0 }`); n != writers*perWriter {
		t.Fatalf("%d requests landed, want %d", n, writers*perWriter)
	}
}
