// Visualizations renders the paper's Figures 4–7 over the Scholarly LD:
// treemap, sunburst and circle packing of the Cluster Schema, and the
// hierarchical edge bundling of the Schema Summary focused on the Event
// class (ranges in green, domains in red, exactly as Figure 7).
//
// Run with: go run ./examples/visualizations [outdir]
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
	outdir := "viz-out"
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

	figures := []struct {
		file, figure string
		content      []byte
	}{
		{"figure4-treemap.svg", "Figure 4 (treemap)", viz.TreemapView(cs, s, 1000, 700)},
		{"figure5-sunburst.svg", "Figure 5 (sunburst)", viz.SunburstView(cs, s, 800)},
		{"figure6-circlepack.svg", "Figure 6 (circle packing)", viz.CirclePackView(cs, s, 800)},
		{"figure7-bundling.svg", "Figure 7 (edge bundling, focus Event)",
			viz.BundleView(cs, s, synth.ScholarlyNS+"Event", 900)},
	}
	for _, f := range figures {
		path := filepath.Join(outdir, f.file)
		if err := os.WriteFile(path, f.content, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s → %s (%d bytes)\n", f.figure, path, len(f.content))
	}
}
