// Federation: query N SPARQL endpoints as if they were one.
//
// The scholarly corpus is partitioned by class across three in-process
// endpoints, each is indexed (so the document store holds a per-endpoint
// extraction index), and a FederatedClient is built over the registry.
// The demo then runs one broad query — every member contributes to the
// merged stream — and one class-specific query under IndexPrune, where
// the extracted indexes prove two of the three endpoints cannot answer
// and the query never reaches them.
//
// Run with: go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/synth"
)

func main() {
	tool := core.New(docstore.MustOpenMem(), clock.Real{})

	// 1. Partition one corpus across three endpoints and index each —
	// in production these would be three independent public endpoints.
	parts := synth.PartitionByClass(synth.Scholarly(1), 3)
	var urls []string
	for i, p := range parts {
		url := fmt.Sprintf("http://part%d.example.org/sparql", i)
		urls = append(urls, url)
		tool.Registry.Add(registry.Entry{URL: url, Title: fmt.Sprintf("Scholarly shard %d", i)})
		tool.Connect(url, endpoint.LocalClient{Store: p})
		if err := tool.Process(url); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Build a federation over every connected endpoint. It implements
	// endpoint.Client/Streamer, so anything that talks to one endpoint
	// can talk to all three through it.
	fed, err := tool.Federation(urls, federation.IndexPrune)
	if err != nil {
		log.Fatal(err)
	}

	// 3. A broad query: every shard contributes, rows merge incrementally.
	ctx := context.Background()
	rs, err := fed.Stream(ctx, `SELECT DISTINCT ?c WHERE { ?s a ?c }`)
	if err != nil {
		log.Fatal(err)
	}
	classes := 0
	var sample string
	for row := range rs.All() {
		if classes == 0 {
			sample = row["c"].Value
		}
		classes++
	}
	if err := rs.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated DISTINCT classes: %d (first: %s)\n", classes, sample)

	// 4. A class-specific query: the extracted indexes prove which shard
	// holds the class, and IndexPrune sends the query only there.
	res, err := fed.Query(ctx, fmt.Sprintf(`SELECT ?s WHERE { ?s a <%s> } LIMIT 5`, sample))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instances of %s: %d rows\n", sample, len(res.Rows))

	// 5. Per-source accounting — the process registry behind /metrics and
	// /api/federation/stats — shows the pruning at work: shards whose
	// index lacks the class record a prune, not a query.
	stats := map[string]map[string]float64{}
	for _, fam := range tool.Metrics.Snapshot() {
		name, ok := strings.CutPrefix(fam.Name, "hbold_federation_")
		if !ok {
			continue
		}
		for _, se := range fam.Series {
			url := se.Labels["source"]
			if stats[url] == nil {
				stats[url] = map[string]float64{}
			}
			stats[url][name] = se.Value
		}
	}
	for _, src := range fed.Sources() {
		st := stats[src.URL]
		firstRow := time.Duration(st["first_row_seconds"] * float64(time.Second))
		fmt.Printf("  %-20s queries=%.0f rows=%-5.0f pruned=%.0f firstRow=%s\n",
			src.Name, st["queries_total"], st["rows_total"], st["pruned_total"], firstRow.Round(1000))
	}
}
