package federation

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// stat reads one source's series of the family hbold_federation_<name>
// off reg: the per-source accounting, read the way /api/federation/stats
// reads it. A series never touched reads 0.
func stat(reg *obs.Registry, name, url string) float64 {
	for _, fam := range reg.Snapshot() {
		if fam.Name != "hbold_federation_"+name {
			continue
		}
		for _, se := range fam.Series {
			if se.Labels["source"] == url {
				return se.Value
			}
		}
	}
	return 0
}

// TestRegistryCountsPerSource: the registry is the per-source
// accounting — one series per source a query reached, keyed by the
// source URL, summing to what the query returned.
func TestRegistryCountsPerSource(t *testing.T) {
	_, parts := unionAndParts(2)
	srcs := localSources(parts)
	reg := obs.NewRegistry()
	fed := New(srcs...)
	fed.Metrics = reg
	res, err := fed.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	var queries, rows float64
	known := map[string]bool{}
	for _, src := range srcs {
		queries += stat(reg, "queries_total", src.URL)
		rows += stat(reg, "rows_total", src.URL)
		known[src.URL] = true
	}
	if int(queries) != len(srcs) {
		t.Fatalf("registry queries = %v, want %d", queries, len(srcs))
	}
	if int(rows) != len(res.Rows) {
		t.Fatalf("registry rows = %v, result rows = %d", rows, len(res.Rows))
	}
	for _, fam := range reg.Snapshot() {
		for _, se := range fam.Series {
			if u, ok := se.Labels["source"]; ok && !known[u] {
				t.Errorf("%s: series for unknown source %q", fam.Name, u)
			}
		}
	}
}
