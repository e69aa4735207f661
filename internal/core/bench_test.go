package core

// Layer benchmarks for the two request paths that read or replace a
// dataset's published State: a federated open (what /api/query?sources=
// pays before its first row, the per-request federation included) and a
// small update (what /api/update pays end to end). CI's bench smoke runs
// them at -benchtime 1x; CHANGES.md carries their history.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/synth"
)

func BenchmarkFederationOpen(b *testing.B) {
	h, _ := newTool(b)
	for i, p := range synth.PartitionByClass(synth.Scholarly(1), 6) {
		u := fmt.Sprintf("http://fedbench%d.example.org/sparql", i)
		h.Registry.Add(registry.Entry{URL: u, Title: u})
		h.Connect(u, endpoint.LocalClient{Store: p})
		if err := h.Process(u); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	query := `SELECT ?s ?n WHERE { ?s a <` + synth.ScholarlyNS + `Person> ; <` + synth.ScholarlyNS + `name> ?n } LIMIT 200`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := h.Federation(nil, federation.IndexPrune)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := f.Stream(ctx, query)
		if err != nil {
			b.Fatal(err)
		}
		ok := false
		for range rs.Terms() {
			b.StopTimer() // the first row is what the open costs; the teardown is not
			ok = true
			break
		}
		if !ok {
			b.Fatalf("no first row: %v", rs.Err())
		}
		rs.Close()
		b.StartTimer()
	}
}

func BenchmarkApplyUpdateSmall(b *testing.B) {
	h, _ := newTool(b)
	url := connectScholarly(b, h)
	if err := h.Process(url); err != nil {
		b.Fatal(err)
	}
	var data strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&data, "<http://scholarly.example.org/person/bench%d> a <%sPerson> ; <%sname> \"bench %d\" .\n",
			i, synth.ScholarlyNS, synth.ScholarlyNS, i)
	}
	insert, remove := "INSERT DATA {\n"+data.String()+"}", "DELETE DATA {\n"+data.String()+"}"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range []string{insert, remove} {
			res, err := h.ApplyUpdate(ctx, url, text)
			if err != nil {
				b.Fatal(err)
			}
			if res.Added+res.Removed != 10 {
				b.Fatalf("delta = +%d/-%d, want 10 triples", res.Added, res.Removed)
			}
		}
	}
}
