package server

// Tests for the rule a dataset's local tier follows: /api/query reads
// the store /api/update writes and the index describes — in memory, on
// disk, and in a restarted instance with nothing connected — and request
// input never creates a store.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/turtle"
)

const (
	tierURL     = "http://tier.example.org/sparql"
	authorClass = "http://ex/Author"
	authorRows  = `SELECT ?s WHERE { ?s a <` + authorClass + `> }`
	authorCount = `SELECT (COUNT(?s) AS ?n) WHERE { ?s a <` + authorClass + `> }`
)

// corpusTool is one life of a writable corpus-mode instance over dir.
func corpusTool(t *testing.T, dir string, now time.Time) (*core.HBOLD, string) {
	t.Helper()
	db, err := docstore.Open(filepath.Join(dir, "docs"))
	if err != nil {
		t.Fatal(err)
	}
	tool := core.New(db, clock.NewSim(now))
	tool.CorpusDir = filepath.Join(dir, "corpus")
	if err := tool.LoadState(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	return tool, srv.URL
}

// csvRows runs a query through /api/query and returns the data lines of
// its CSV answer.
func csvRows(t *testing.T, base string, params url.Values, query string) []string {
	t.Helper()
	params.Set("sparql", query)
	params.Set("format", "csv")
	code, body, _ := get(t, base+"/api/query?"+params.Encode())
	if code != 200 {
		t.Fatalf("/api/query?%s -> %d: %s", params.Encode(), code, body)
	}
	lines := strings.Split(strings.TrimSpace(strings.ReplaceAll(body, "\r\n", "\n")), "\n")
	return lines[1:]
}

// tierCounts is one dataset seen from every side that should agree.
type tierCounts struct {
	summaryAuthors, queryAuthors, fedAuthors int
	summaryTriples, corpusTriples            int
}

func observeTier(t *testing.T, tool *core.HBOLD, base string) tierCounts {
	t.Helper()
	var c tierCounts
	code, body, _ := get(t, base+"/api/summary?dataset="+url.QueryEscape(tierURL))
	if code != 200 {
		t.Fatalf("/api/summary -> %d: %s", code, body)
	}
	var sum schema.Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	c.summaryTriples = sum.Triples
	for _, n := range sum.Nodes {
		if n.IRI == authorClass {
			c.summaryAuthors = n.Instances
		}
	}
	n := csvRows(t, base, url.Values{"dataset": {tierURL}}, authorCount)
	if len(n) != 1 {
		t.Fatalf("COUNT answered %q", n)
	}
	c.queryAuthors, _ = strconv.Atoi(n[0])
	// a federation refuses aggregates, so the same count is its row count
	c.fedAuthors = len(csvRows(t, base, url.Values{"sources": {"all"}}, authorRows))
	r, err := tool.Corpus(tierURL)
	if err != nil {
		t.Fatal(err)
	}
	c.corpusTriples = r.Len()
	return c
}

func (c tierCounts) mustAgree(t *testing.T, when string, authors int) {
	t.Helper()
	if c.summaryAuthors != authors || c.queryAuthors != authors || c.fedAuthors != authors || c.summaryTriples != c.corpusTriples {
		t.Errorf("%s: want %d authors everywhere and one triple count, got %+v", when, authors, c)
	}
}

func postUpdate(t *testing.T, base, dataset, text string) (int, string) {
	t.Helper()
	return postForm(t, base+"/api/update", url.Values{"dataset": {dataset}, "update": {text}})
}

func insertAuthor(name string) string {
	return fmt.Sprintf(`INSERT DATA { <http://ex/%s> a <%s> }`, name, authorClass)
}

// TestOneTierPerDataset (run with -race): corpus mode, writable, one small
// dataset behind a LocalClient. (a) an update is visible to the summary,
// to /api/query, to sources=all and in the replica alike; (b) it stays so
// through a refresh and through updates racing refreshes; (c) a second
// instance over the same directories, with nothing connected, answers the
// same rows, takes a further update, lists the dataset under sources=all,
// refreshes without a failed job or a tripped breaker, and explains.
func TestOneTierPerDataset(t *testing.T) {
	dir := t.TempDir()
	tool, base := corpusTool(t, dir, clock.Epoch)
	tool.Registry.Add(registry.Entry{URL: tierURL, Title: "Tier", AddedAt: clock.Epoch})
	tool.Connect(tierURL, endpoint.LocalClient{Store: store.FromGraph(turtle.MustParse(`
@prefix ex: <http://ex/> .
ex:a1 a ex:Author ; ex:name "A1" .
ex:b1 a ex:Book ; ex:by ex:a1 .
`))})
	if err := tool.Process(tierURL); err != nil {
		t.Fatal(err)
	}
	observeTier(t, tool, base).mustAgree(t, "after the first refresh", 1)

	// (a)
	if code, body := postUpdate(t, base, tierURL, insertAuthor("a2")); code != 200 {
		t.Fatalf("update -> %d: %s", code, body)
	}
	observeTier(t, tool, base).mustAgree(t, "(a) after an update", 2)

	// (b)
	if err := tool.Process(tierURL); err != nil {
		t.Fatal(err)
	}
	observeTier(t, tool, base).mustAgree(t, "(b) after the next refresh", 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if code, body := postUpdate(t, base, tierURL, insertAuthor(fmt.Sprint("r", i))); code != 200 {
				t.Errorf("racing update -> %d: %s", code, body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := tool.Process(tierURL); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	observeTier(t, tool, base).mustAgree(t, "(b) after updates racing refreshes", 22)
	want := csvRows(t, base, url.Values{"dataset": {tierURL}}, authorRows+" ORDER BY ?s")
	if err := tool.SaveState(); err != nil {
		t.Fatal(err)
	}
	tool.Close()

	// (c): past the weekly refresh, so the restored dataset is due
	tool, base = corpusTool(t, dir, clock.Epoch.Add(8*24*time.Hour))
	defer tool.Close()
	got := csvRows(t, base, url.Values{"dataset": {tierURL}}, authorRows+" ORDER BY ?s")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("(c) restarted instance answers\n%q\nwant\n%q", got, want)
	}
	observeTier(t, tool, base).mustAgree(t, "(c) after a restart", 22)
	if code, body := postUpdate(t, base, tierURL, insertAuthor("a3")); code != 200 {
		t.Fatalf("(c) update after a restart -> %d: %s", code, body)
	}
	observeTier(t, tool, base).mustAgree(t, "(c) after an update to the restarted instance", 23)

	resp, err := http.Post(base+"/api/refresh", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := tool.Scheduler().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs := tool.SchedulerJobs()
	if len(jobs) != 1 || jobs[0].State != sched.StateSucceeded {
		t.Fatalf("(c) refresh of a restored dataset: jobs = %+v", jobs)
	}
	if st := tool.Breakers.For(tierURL).State(); st != resilience.Closed {
		t.Fatalf("(c) breaker is %v after refreshing a restored dataset", st)
	}
	observeTier(t, tool, base).mustAgree(t, "(c) after refreshing the restarted instance", 23)

	code, body, _ := get(t, base+"/api/query?"+url.Values{"dataset": {tierURL}, "sparql": {authorRows}, "explain": {"1"}}.Encode())
	if code != 200 || !strings.Contains(body, `"rows"`) {
		t.Fatalf("(c) explain=1 over the replica -> %d: %s", code, body)
	}
}

// TestUpdateOfUnknownDatasetCreatesNothing: ?dataset= is request input.
// With a corpus directory, an update naming a URL the instance does not
// know is refused before a directory, a generation or a feed event exists.
func TestUpdateOfUnknownDatasetCreatesNothing(t *testing.T) {
	tool, base := corpusTool(t, t.TempDir(), clock.Epoch)
	defer tool.Close()
	// something is open already, so the gauge below is not trivially zero
	if _, err := tool.Corpus(tierURL); err != nil {
		t.Fatal(err)
	}
	listing := func() string {
		entries, err := os.ReadDir(tool.CorpusDir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	open := func() string {
		_, body, _ := get(t, base+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "hbold_corpus_open ") {
				return line
			}
		}
		t.Fatal("hbold_corpus_open not on /metrics")
		return ""
	}
	dirsBefore, openBefore := listing(), open()

	code, body := postUpdate(t, base, "http://nobody.example/whatever?x=1", insertAuthor("a1"))
	if after := listing(); after != dirsBefore {
		t.Errorf("corpus directory changed: %q -> %q", dirsBefore, after)
	}
	if after := open(); after != openBefore {
		t.Errorf("%q -> %q", openBefore, after)
	}
	if code < 400 || code >= 500 {
		t.Errorf("update of an unknown dataset -> %d: %s", code, body)
	}
	if _, feed, _ := get(t, base+"/api/changes?follow=false"); feed != "" {
		t.Errorf("change feed carries %q", feed)
	}
	if g := tool.Generation("http://nobody.example/whatever?x=1"); g != 0 {
		t.Errorf("generation %d committed for an unknown dataset", g)
	}
}
