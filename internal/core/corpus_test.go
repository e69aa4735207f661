package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/endpoint"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/synth"
)

// corpusQueries probe the mirrored statement set from several angles.
var corpusQueries = []string{
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
}

func queryTSV(t *testing.T, st store.Queryable, query string) string {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Exec(st)
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
	if len(q.OrderBy) == 0 {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// TestCorpusMirrorAndRestart is the end-to-end instant-restart check:
// Process mirrors the endpoint's statements into the persistent corpus,
// and a fresh instance over the same directory answers the same queries
// from disk — with no client connected, so provably without
// re-extraction.
func TestCorpusMirrorAndRestart(t *testing.T) {
	dir := t.TempDir()
	url := "http://scholarly.example.org/sparql"
	src := synth.Scholarly(1)

	want := make(map[string]string)
	for _, q := range corpusQueries {
		want[q] = queryTSV(t, src, q)
	}

	// first life: extract, mirror, shut down cleanly
	{
		tool := New(nil, clock.NewSim(clock.Epoch))
		tool.CorpusDir = dir
		tool.Connect(url, endpoint.LocalClient{Store: src})
		if err := tool.Process(url); err != nil {
			t.Fatal(err)
		}
		ds, err := tool.Corpus(url)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != src.Len() {
			t.Fatalf("mirrored corpus has %d triples, endpoint has %d", ds.Len(), src.Len())
		}
		for _, q := range corpusQueries {
			if got := queryTSV(t, ds, q); got != want[q] {
				t.Fatalf("corpus diverges from endpoint on %q:\n got %q\nwant %q", q, got, want[q])
			}
		}
		// the persistent tier shows up on /metrics
		if n := registryValue(t, tool, "hbold_corpus_triples"); int(n) != src.Len() {
			t.Fatalf("hbold_corpus_triples = %v, want %d", n, src.Len())
		}
		if registryValue(t, tool, "hbold_kv_wal_appends_total") == 0 {
			t.Fatal("hbold_kv_wal_appends_total stayed zero through a mirror")
		}
		tool.Close()
	}

	// second life: no client, same directory — answers come from disk
	tool := New(nil, clock.NewSim(clock.Epoch))
	tool.CorpusDir = dir
	defer tool.Close()
	ds, err := tool.Corpus(url)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != src.Len() {
		t.Fatalf("reopened corpus has %d triples, want %d", ds.Len(), src.Len())
	}
	for _, q := range corpusQueries {
		if got := queryTSV(t, ds, q); got != want[q] {
			t.Fatalf("reopened corpus diverges on %q:\n got %q\nwant %q", q, got, want[q])
		}
	}
	// the read path's caches and its failures are on /metrics too
	for _, fam := range []string{"hbold_kv_block_cache_hits_total", "hbold_kv_block_cache_misses_total", "hbold_kv_block_cache_bytes"} {
		registryValue(t, tool, fam)
	}
	if n := registryValue(t, tool, "hbold_kv_read_errors_total"); n != 0 {
		t.Fatalf("hbold_kv_read_errors_total = %v after clean reads", n)
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
