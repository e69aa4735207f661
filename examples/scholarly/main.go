// Scholarly reproduces the paper's Figure 2 walkthrough step by step:
// Cluster Schema → focus on the Event class → iterative expansion →
// complete Schema Summary, printing the node-count and instance-coverage
// feedback the tool shows at every step, and writing an SVG per step.
//
// Run with: go run ./examples/scholarly [outdir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/viz"
)

func main() {
	outdir := "scholarly-out"
	if len(os.Args) > 1 {
		outdir = os.Args[1]
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	url := "http://scholarly.example.org/sparql"
	tool.Registry.Add(registry.Entry{URL: url, Title: "Scholarly LD"})
	tool.Connect(url, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(url); err != nil {
		log.Fatal(err)
	}
	s, _ := tool.Summary(url)
	cs, _ := tool.ClusterSchema(url)

	write := func(name string, content []byte) {
		path := filepath.Join(outdir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    wrote %s\n", path)
	}

	// Step 1 — the Cluster Schema, the high-level entry point.
	fmt.Printf("step 1: Cluster Schema — %d clusters over %d classes\n", cs.NumClusters(), s.NumClasses())
	write("step1-cluster-schema.svg", viz.ClusterGraphView(cs, 900))

	// Step 2 — the user selects the Event class within a cluster.
	event := synth.ScholarlyNS + "Event"
	ex, err := tool.Explore(url, event)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2: focus on Event — %d node, %.1f%% of instances\n", ex.NodeCount(), ex.Coverage())
	write("step2-focus-event.svg", viz.SummaryGraphView(s, ex.VisibleSet(), 900))

	// Step 3 — expanding Event reveals its connections.
	added, err := ex.Expand(event)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 3: expand Event (+%d classes) — %d nodes, %.1f%% of instances\n",
		len(added), ex.NodeCount(), ex.Coverage())
	write("step3-expanded.svg", viz.SummaryGraphView(s, ex.VisibleSet(), 900))

	// Step 4 — repeated expansion reaches the full Schema Summary.
	rounds := ex.ExpandAll()
	fmt.Printf("step 4: full Schema Summary after %d rounds — %d nodes, %.1f%% of instances (complete=%v)\n",
		rounds, ex.NodeCount(), ex.Coverage(), ex.Complete())
	write("step4-full-summary.svg", viz.SummaryGraphView(s, nil, 900))
}
