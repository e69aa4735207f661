// Command hbold-bench regenerates every figure and quantitative claim of
// the paper and prints paper-vs-measured rows. Experiment ids (E1–E11)
// are defined in DESIGN.md; the output of this harness is the source of
// EXPERIMENTS.md.
//
// Usage:
//
//	hbold-bench [-out outdir] [-e E2,E3]   run all (or selected) experiments
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/portal"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/viz"
)

var (
	outDir = flag.String("out", "bench-out", "directory for rendered SVGs")
	only   = flag.String("e", "", "comma-separated experiment ids to run (default all)")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			selected[id] = true
		}
	}
	run := func(id string) bool { return len(selected) == 0 || selected[id] }

	fmt.Println("H-BOLD reproduction harness — paper vs measured")
	fmt.Println(strings.Repeat("=", 64))

	if run("E1") {
		e1()
	}
	if run("E2") {
		e2()
	}
	if run("E3") {
		e3()
	}
	if run("E4") || run("E5") || run("E6") || run("E7") {
		e4to7(run)
	}
	if run("E8") {
		e8()
	}
	if run("E9") {
		e9()
	}
	if run("E10") {
		e10()
	}
	if run("E11") {
		e11()
	}
}

func header(id, paper string) {
	fmt.Printf("\n%s — paper: %s\n%s\n", id, paper, strings.Repeat("-", 64))
}

// scholarlyTool builds the Scholarly fixture pipeline.
func scholarlyTool() (*core.HBOLD, string) {
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	url := "http://scholarly.example.org/sparql"
	tool.Registry.Add(registry.Entry{URL: url, Title: "Scholarly LD", AddedAt: clock.Epoch})
	tool.Connect(url, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(url); err != nil {
		log.Fatal(err)
	}
	return tool, url
}

func e1() {
	header("E1", "Figure 2 — stepwise exploration of the Scholarly LD with node-count and instance-% feedback")
	tool, url := scholarlyTool()
	cs, _ := tool.ClusterSchema(url)
	s, _ := tool.Summary(url)
	fmt.Printf("step 1  Cluster Schema: %d clusters over %d classes\n", cs.NumClusters(), s.NumClasses())
	event := synth.ScholarlyNS + "Event"
	ex, err := tool.Explore(url, event)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2  focus on Event:      %2d nodes, %5.1f%% of instances\n", ex.NodeCount(), ex.Coverage())
	ex.Expand(event)
	fmt.Printf("step 3  expand Event:        %2d nodes, %5.1f%% of instances\n", ex.NodeCount(), ex.Coverage())
	ex.ExpandAll()
	fmt.Printf("step 4  full Schema Summary: %2d nodes, %5.1f%% of instances (complete=%v)\n",
		ex.NodeCount(), ex.Coverage(), ex.Complete())
}

func e2() {
	header("E2", "§3.2 — precomputing the Cluster Schema cuts display time by ~35% on half the endpoints")
	descs := synth.Corpus(1)
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	var urls []string
	for _, d := range descs {
		if !d.Indexable || d.Dead || d.OutageProb > 0 {
			continue
		}
		tool.Registry.Add(registry.Entry{URL: d.URL, Title: d.Title, AddedAt: clock.Epoch})
		tool.Connect(d.URL, endpoint.LocalClient{Store: synth.BuildStore(d)})
		if err := tool.Process(d.URL); err != nil {
			log.Fatal(err)
		}
		urls = append(urls, d.URL)
		if len(urls) == 60 {
			break
		}
	}
	var reductions []float64
	for _, u := range urls {
		// warm both paths once
		tool.ClusterSchemaOnTheFly(u)
		tool.ClusterSchema(u)
		const reps = 5
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := tool.ClusterSchemaOnTheFly(u); err != nil {
				log.Fatal(err)
			}
		}
		fly := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := tool.ClusterSchema(u); err != nil {
				log.Fatal(err)
			}
		}
		pre := time.Since(t0)
		reductions = append(reductions, 100*(1-float64(pre)/float64(fly)))
	}
	sort.Float64s(reductions)
	median := reductions[len(reductions)/2]
	atLeast35 := 0
	for _, r := range reductions {
		if r >= 35 {
			atLeast35++
		}
	}
	fmt.Printf("datasets measured:                      %d\n", len(reductions))
	fmt.Printf("median display-time reduction:          %.0f%%  (paper: 35%% on half the endpoints)\n", median)
	fmt.Printf("endpoints with ≥35%% reduction:          %d/%d (%.0f%%)\n",
		atLeast35, len(reductions), 100*float64(atLeast35)/float64(len(reductions)))
}

func e3() {
	header("E3", "§3.3 — portal crawl: 65+9+15 discovered, +70 new, list 610→680")
	corpus := synth.Corpus(1)
	portals := portal.BuildAll(corpus)
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	for _, d := range corpus {
		if d.PreExisting {
			tool.Registry.Add(registry.Entry{URL: d.URL, Title: d.Title, Source: registry.SourceDataHub, AddedAt: clock.Epoch})
		}
	}
	before := tool.Registry.Len()
	rep, err := tool.CrawlPortals(context.Background(), portals)
	if err != nil {
		log.Fatal(err)
	}
	paper := map[string]int{synth.PortalEDP: 65, synth.PortalEUODP: 9, synth.PortalIODS: 15}
	for _, pr := range rep.Portals {
		fmt.Printf("%-24s discovered %2d (paper %2d), new %2d\n", pr.Portal, pr.Discovered, paper[pr.Portal], pr.Added)
	}
	fmt.Printf("listed: %d → %d (paper 610 → 680), +%d new (paper +70)\n",
		before, rep.ListedAfter, rep.TotalAdded())
}

func e4to7(run func(string) bool) {
	tool, url := scholarlyTool()
	s, _ := tool.Summary(url)
	cs, _ := tool.ClusterSchema(url)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name string, content []byte) {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rendered %-18s %6d bytes, %4d elements\n", path, len(content), bytes.Count(content, []byte("<")))
	}
	if run("E4") {
		header("E4", "Figure 4 — treemap of the Cluster Schema (area ∝ instances)")
		write("treemap.svg", viz.TreemapView(cs, s, 1000, 700))
	}
	if run("E5") {
		header("E5", "Figure 5 — sunburst (inner ring clusters, outer ring classes)")
		write("sunburst.svg", viz.SunburstView(cs, s, 800))
	}
	if run("E6") {
		header("E6", "Figure 6 — circle packing (classes ⊂ clusters ⊂ dataset)")
		write("circlepack.svg", viz.CirclePackView(cs, s, 800))
	}
	if run("E7") {
		header("E7", "Figure 7 — hierarchical edge bundling, focus Event (ranges green, domains red)")
		write("bundle.svg", viz.BundleView(cs, s, synth.ScholarlyNS+"Event", 900))
	}
}

func e8() {
	header("E8", "§5 — H-BOLD tested on 130 Big LD showing good performances")
	descs := synth.Corpus(1)
	ck := clock.NewSim(clock.Epoch)
	tool := core.New(docstore.MustOpenMem(), ck)
	defer tool.Close()
	// this row records the sequential pipeline baseline; the worker
	// pool's speedup is E12's claim, not E8's
	tool.SchedulerConfig = sched.Config{Workers: 1}
	for i, d := range descs {
		tool.Registry.Add(registry.Entry{URL: d.URL, Title: d.Title, AddedAt: clock.Epoch})
		tool.Connect(d.URL, synth.BuildRemote(d, ck, int64(i)))
	}
	t0 := time.Now()
	// run the daily job until the indexable population stabilizes (flaky
	// endpoints need §3.1 retry days); 6 days stays inside one refresh
	// cycle so every endpoint is extracted exactly once
	var okTotal int
	for day := 0; day < 6; day++ {
		ok, _ := tool.RunDue()
		okTotal += ok
		ck.AdvanceDays(1)
	}
	elapsed := time.Since(t0)
	fmt.Printf("endpoints listed:   %d (paper 680)\n", tool.Registry.Len())
	fmt.Printf("endpoints indexed:  %d (paper 130)\n", tool.Registry.IndexedCount())
	fmt.Printf("pipeline wall time: %v for %d extraction+summary+cluster runs\n", elapsed.Round(time.Millisecond), okTotal)
}

func e9() {
	header("E9", "§3.1 — weekly refresh + daily retry keeps indexes fresh through 1–2-day outages")
	corpus := synth.Corpus(1)
	ck := clock.NewSim(clock.Epoch)
	reg := registry.New(registry.DefaultPolicy)
	avail := map[string]*endpoint.Availability{}
	for i, d := range corpus {
		if !d.Indexable {
			continue
		}
		reg.Add(registry.Entry{URL: d.URL, AddedAt: clock.Epoch})
		if d.Dead {
			avail[d.URL] = endpoint.AlwaysDown()
		} else {
			avail[d.URL] = endpoint.NewAvailability(int64(i), d.OutageProb)
		}
	}
	days := 60
	attempts, failures := 0, 0
	staleDaysSum, staleSamples := 0, 0
	for day := 0; day < days; day++ {
		for _, url := range reg.Due(ck.Now()) {
			attempts++
			if avail[url].UpOn(day) {
				reg.RecordSuccess(url, ck.Now())
			} else {
				reg.RecordFailure(url, ck.Now())
				failures++
			}
		}
		// sample staleness of the index population
		for _, e := range reg.Entries() {
			if e.Indexed {
				staleDaysSum += int(ck.Now().Sub(e.LastSuccess).Hours() / 24)
				staleSamples++
			}
		}
		ck.AdvanceDays(1)
	}
	fmt.Printf("endpoints simulated:      %d over %d days\n", reg.Len(), days)
	fmt.Printf("extraction attempts:      %d (%.1f/endpoint/week)\n", attempts,
		float64(attempts)/float64(reg.Len())/float64(days)*7)
	fmt.Printf("attempts hitting outages: %d (%.0f%%) — retried next day per §3.1\n",
		failures, 100*float64(failures)/float64(attempts))
	fmt.Printf("mean index age:           %.1f days (policy target < 7)\n",
		float64(staleDaysSum)/float64(staleSamples))
	fmt.Printf("endpoints indexed at end: %d\n", reg.IndexedCount())
}

func e10() {
	header("E10", "Figure 3 / §3.4 — manual insertion with e-mail notification, address deleted after send")
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	defer tool.Close()
	url := "http://user-submitted.example.org/sparql"
	if err := tool.SubmitEndpoint(url, "User LD", "submitter@example.org"); err != nil {
		log.Fatal(err)
	}
	tool.Connect(url, endpoint.LocalClient{Store: synth.Generate(synth.Spec{
		Name: "user", Classes: 12, Instances: 800, ObjectProps: 20, DataProps: 10, LinkFactor: 1, Seed: 5})})
	ok, failed := tool.RunDue()
	fmt.Printf("submission processed: ok=%d failed=%d\n", ok, failed)
	for _, m := range tool.Outbox.Sent() {
		fmt.Printf("notification to %s: %q\n", m.RecipientHint, m.Subject)
	}
	e, _ := tool.Registry.Get(url)
	fmt.Printf("address retained after notification: %v (paper: deleted)\n", e.PendingEmail != "")
	listed := false
	for _, d := range tool.Datasets() {
		if d.URL == url {
			listed = true
		}
	}
	fmt.Printf("dataset listed among the others: %v\n", listed)
}

func e11() {
	header("E11", "Listing 1 — the DCAT extraction query, run verbatim against each portal")
	portals := portal.BuildAll(synth.Corpus(1))
	for _, p := range portals {
		res, err := p.Client().Query(context.Background(), portal.Listing1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %2d sparql distributions (catalog advertises %d)\n",
			p.Name, len(res.Rows), p.SparqlDatasets)
	}
}
