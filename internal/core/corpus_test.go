package core

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/store"
	"repro/internal/synth"
)

// corpusQueries probe the mirrored statement set from several angles.
var corpusQueries = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
}

// openLife opens one life of a corpus-mode instance over dir: the document
// store under docs/, the replicas under corpus/. The caller closes it.
func openLife(t *testing.T, dir string) *HBOLD {
	t.Helper()
	db, err := docstore.Open(filepath.Join(dir, "docs"))
	if err != nil {
		t.Fatal(err)
	}
	h := New(db, clock.NewSim(clock.Epoch))
	h.CorpusDir = filepath.Join(dir, "corpus")
	return h
}

func queryTSV(t *testing.T, c endpoint.Client, query string) string {
	t.Helper()
	res, err := c.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range res.Vars {
			if term, ok := row[v]; ok {
				sb.WriteString(term.String())
			}
			sb.WriteByte('\t')
		}
		lines = append(lines, sb.String())
	}
	if !strings.Contains(query, "ORDER BY") {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// TestCorpusMirrorAndRestart is the end-to-end instant-restart check:
// Process mirrors the endpoint's statements into the replica, which then
// answers the dataset's queries, and a fresh instance over the same
// directories answers the same queries through the same path — with no
// client connected, so provably from disk and without re-extraction.
func TestCorpusMirrorAndRestart(t *testing.T) {
	dir := t.TempDir()
	url := "http://scholarly.example.org/sparql"
	src := synth.Scholarly(1)
	// answers reads the dataset the way /api/query does
	answers := func(tool *HBOLD) map[string]string {
		c, err := tool.EndpointClient(url)
		if err != nil {
			t.Fatal(err)
		}
		if lc, ok := c.(endpoint.LocalClient); !ok || lc.Store == store.Queryable(src) {
			t.Fatalf("the dataset's queries are answered by %#v, want its replica", c)
		}
		out := make(map[string]string)
		for _, q := range corpusQueries {
			out[q] = queryTSV(t, c, q)
		}
		return out
	}
	want := make(map[string]string)
	for _, q := range corpusQueries {
		want[q] = queryTSV(t, endpoint.LocalClient{Store: src}, q)
	}

	// first life: extract, mirror, shut down cleanly
	{
		tool := openLife(t, dir)
		tool.Connect(url, endpoint.LocalClient{Store: src})
		if err := tool.Process(url); err != nil {
			t.Fatal(err)
		}
		if got := answers(tool); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica diverges from endpoint:\n got %q\nwant %q", got, want)
		}
		// the persistent tier shows up on /metrics
		if n := registryValue(t, tool, "hbold_corpus_triples"); int(n) != src.Len() {
			t.Fatalf("hbold_corpus_triples = %v, want %d", n, src.Len())
		}
		if registryValue(t, tool, "hbold_kv_wal_appends_total") == 0 {
			t.Fatal("hbold_kv_wal_appends_total stayed zero through a mirror")
		}
		if err := tool.DB.Flush(); err != nil {
			t.Fatal(err)
		}
		tool.Close()
	}

	// second life: no client, same directories — answers come from disk
	tool := openLife(t, dir)
	defer tool.Close()
	if n := registryValue(t, tool, "hbold_corpus_open"); n != 0 {
		t.Fatalf("hbold_corpus_open = %v before anything asked for the dataset", n)
	}
	if got := answers(tool); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replica diverges:\n got %q\nwant %q", got, want)
	}
	if n := registryValue(t, tool, "hbold_corpus_triples"); int(n) != src.Len() {
		t.Fatalf("hbold_corpus_triples = %v after a restart, want %d", n, src.Len())
	}
	// the read path's caches and its failures are on /metrics too
	for _, fam := range []string{"hbold_kv_block_cache_hits_total", "hbold_kv_block_cache_misses_total", "hbold_kv_block_cache_bytes"} {
		registryValue(t, tool, fam)
	}
	if n := registryValue(t, tool, "hbold_kv_read_errors_total"); n != 0 {
		t.Fatalf("hbold_kv_read_errors_total = %v after clean reads", n)
	}
	// and so is the cursor's work: seeks attempted, and the useful share
	seeks, inPlace := registryValue(t, tool, "hbold_kv_seeks_total"), registryValue(t, tool, "hbold_kv_seeks_in_place_total")
	if seeks == 0 || inPlace > seeks {
		t.Fatalf("hbold_kv_seeks_total = %v, hbold_kv_seeks_in_place_total = %v after queries on the replica", seeks, inPlace)
	}
}

// TestCorpusOffByDefault pins that the memory-only pipeline is untouched
// when no corpus directory is configured.
func TestCorpusOffByDefault(t *testing.T) {
	url := "http://scholarly.example.org/sparql"
	tool := New(nil, clock.NewSim(clock.Epoch))
	defer tool.Close()
	tool.Connect(url, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(url); err != nil {
		t.Fatal(err)
	}
	if _, err := tool.Corpus(url); err != ErrNoCorpusDir {
		t.Fatalf("Corpus without CorpusDir: err = %v, want ErrNoCorpusDir", err)
	}
	if n := registryValue(t, tool, "hbold_corpus_open"); n != 0 {
		t.Fatalf("hbold_corpus_open = %v without a corpus dir", n)
	}
}

// registryValue reads one single-series family from the metrics
// snapshot.
func registryValue(t *testing.T, tool *HBOLD, name string) float64 {
	t.Helper()
	for _, f := range tool.Metrics.Snapshot() {
		if f.Name != name {
			continue
		}
		if len(f.Series) != 1 {
			t.Fatalf("family %s has %d series", name, len(f.Series))
		}
		return f.Series[0].Value
	}
	t.Fatalf("family %s not registered", name)
	return 0
}
