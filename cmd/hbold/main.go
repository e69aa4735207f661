// Command hbold is the H-BOLD command line: it can serve the
// presentation layer over a demo corpus, run the full server layer as a
// daemon with the concurrent extraction scheduler, run index extraction
// on a Turtle file, render the §3.5 visualizations to SVG files,
// simulate the §3.3 portal crawl, and list indexed datasets.
//
// Usage:
//
//	hbold serve [-addr :8080] [-datasets N] [-cache 64] [-slow-query 0] [-readonly=false] [-debug-addr ADDR]
//	hbold daemon [-addr :8080] [-datasets N] [-workers 4] [-poll 30s] [-retries 3] [-rate 0] [-cache 64] [-slow-query 0] [-readonly=false] [-debug-addr ADDR]
//	hbold extract <file.ttl>
//	hbold render <file.ttl> <outdir>
//	hbold crawl
//	hbold query [-timeout 0] [-stream] <file.ttl> <sparql-query>
//	hbold query [-timeout 0] [-stream] [-policy all] -endpoint URL [-endpoint URL ...] <sparql-query>
//	hbold sparqld [-addr :8081] [-quiet] [-readonly] [-debug-addr ADDR] <file.ttl>
//
// -debug-addr, on the three server modes, opens a second listener that
// serves the net/http/pprof profiles (CPU, heap, goroutines, execution
// trace) under /debug/pprof/; it is off unless given.
//
// Live mutation: sparqld accepts SPARQL 1.1 Update requests (POST with
// Content-Type application/sparql-update or an update= form field, at
// most 10 MiB) and applies them to the serving tier in place — both the
// in-memory store and a -data-dir disk store, where each request commits
// as one crash-safe WAL record and a request that fails part-way is
// undone. serve and daemon read the same two shapes with the same
// function (endpoint.ServeUpdate) on POST /api/update and add a change
// feed on GET /api/changes (NDJSON, ?since= replay); both default to -readonly=true and answer updates
// with 403 until started with -readonly=false, while sparqld defaults
// to writable and locks down with -readonly.
//
// Both server modes expose the process metrics registry in the
// Prometheus text format on GET /metrics (scheduler, snapshot cache,
// federation, endpoint clients and the query engine all account into
// it), per-source federation counters on GET /api/federation/stats, and
// a query profile via /api/query?...&explain=1 — the compiled plan
// annotated with per-stage row counts and timings instead of rows.
// -slow-query 500ms logs every /api/query slower than the threshold as
// a structured record (query hash, duration, rows); sparqld writes one
// such record per request unless -quiet.
//
// query runs through the same context-aware client API the rest of the
// tool uses: -timeout bounds the query with a context deadline, and
// -stream prints rows as NDJSON while the engine produces them (a head
// line {"vars": [...]}, then one binding object per row —
// results.Serve, the loop sparqld and /api/query answer with, writing
// to stdout in 32 KiB writes, none held more than 10 ms) instead of collecting the result into an aligned table. Repeating
// -endpoint federates the query over several live SPARQL endpoints: all
// of them evaluate concurrently and the row streams are merged
// incrementally (internal/federation), with DISTINCT deduplicated on
// the merge; -policy cost opens the cheapest source first.
//
// Both server modes keep a versioned snapshot cache in front of the
// presentation read path (-cache sets its budget in MiB; 0 disables
// it): summaries, cluster schemas, layout models and rendered SVG are
// memoized per dataset generation, responses carry "<url>@<generation>"
// ETags, and If-None-Match revalidations answer 304 without
// recomputing. Cache effectiveness is served on /api/cache.
//
// Daemon mode is the deployed shape of the paper's server layer: the
// HTTP presentation layer runs while a clock-driven refresh cycle polls
// the §3.1 policy every -poll interval and enqueues due endpoints on
// the internal/sched worker pool (-workers wide, with -retries
// exponential-backoff attempts per job and an optional -rate
// per-endpoint dispatch limit). Live queue state is served on
// /api/jobs and /metrics (hbold_sched_*), a refresh can be forced with
// POST /api/refresh, and SIGINT/SIGTERM drains the pool before exit.
// Both build their stores on GOMAXPROCS workers at start-up; serve indexes
// them there too, daemon not — /api/jobs then shows its first cycle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/federation"
	"repro/internal/portal"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/snapcache"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
	"repro/internal/turtle"
	"repro/internal/update"
	"repro/internal/viz"
)

func main() {
	// Linking net/http/pprof (for -debug-addr) makes the runtime sample
	// heap allocations for profiles in every process, which a binary
	// without it never does; the sampling costs allocation-heavy serving
	// paths several percent and its buckets stay resident. It is off
	// until a debug listener asks for it.
	runtime.MemProfileRate = 0
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		cmdServe(os.Args[2:])
	case "daemon":
		cmdDaemon(os.Args[2:])
	case "extract":
		cmdExtract(os.Args[2:])
	case "render":
		cmdRender(os.Args[2:])
	case "crawl":
		cmdCrawl()
	case "query":
		cmdQuery(os.Args[2:])
	case "sparqld":
		cmdSparqld(os.Args[2:])
	default:
		usage()
	}
}

// cmdSparqld serves a Turtle file as a plain SPARQL protocol endpoint —
// the counterpart of query's -endpoint flag, so a federation can be
// assembled entirely from the CLI: run one sparqld per file, then
// `hbold query -endpoint ... -endpoint ...` across them.
func cmdSparqld(args []string) {
	fs := flag.NewFlagSet("sparqld", flag.ExitOnError)
	addr := fs.String("addr", ":8081", "listen address")
	dataDir := fs.String("data-dir", "", "persistent data directory: an empty one is seeded from the Turtle file, a populated one serves from disk (file arg optional)")
	quiet := fs.Bool("quiet", false, "disable the per-request access log")
	readonly := fs.Bool("readonly", false, "refuse SPARQL updates with 403 (the query surface stays up)")
	debugAddr := fs.String("debug-addr", "", debugAddrUsage)
	fs.Parse(args)
	debugListen(*debugAddr)
	var st store.Queryable
	var be store.Backend
	var triples int
	var source string
	switch {
	case *dataDir != "":
		if fs.NArg() > 1 {
			usage()
		}
		ds, src, err := openDataDir(*dataDir, fs.Arg(0))
		if err != nil {
			log.Fatalf("hbold: %v", err)
		}
		st, be, triples, source = ds, ds, ds.Len(), src
	case fs.NArg() == 1:
		mem := loadTurtle(fs.Arg(0))
		// The builder's sort buffers and the load's growing slices are
		// garbage now (the document was a mapping, and is unmapped), and
		// a read-only server may take long to allocate its way to the
		// next collection: run it here, before serving, and hand the
		// freed pages back (on the 152,708-triple corpus, VmRSS 60 MB
		// after a bare runtime.GC, 29 MB after this).
		debug.FreeOSMemory()
		st, be, triples, source = mem, mem, mem.Len(), fs.Arg(0)
	default:
		usage()
	}
	h := &endpoint.Handler{Store: st, ReadOnly: *readonly}
	if !*readonly {
		// the SPARQL 1.1 Update surface: POST application/sparql-update
		// or an update= form field mutates the serving tier in place
		h.Update = func(ctx context.Context, text string) (int, int, error) {
			d, err := update.ApplyText(ctx, be, text)
			if err != nil {
				return 0, 0, err
			}
			return len(d.Added), len(d.Removed), nil
		}
	}
	if !*quiet {
		// one structured record per request: method, query hash, rows
		// streamed, duration, status
		h.Log = newLogger()
	}
	log.Printf("hbold: serving %s (%d triples) as a SPARQL endpoint on %s", source, triples, *addr)
	log.Fatal(http.ListenAndServe(*addr, h))
}

// openDataDir opens the disk store in dir and, if it has never held a
// term, seeds it from the Turtle file at seed; it says which it did. A
// seed is one commit, so a store is either empty or whole, and one whose
// triples were all deleted since is restarted like any other.
func openDataDir(dir, seed string) (*disk.Store, string, error) {
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		return nil, "", err
	}
	if !ds.Empty() {
		return ds, fmt.Sprintf("%s (restarted, no re-load)", dir), nil
	}
	if seed == "" {
		ds.Close()
		return nil, "", fmt.Errorf("%s is empty; give a Turtle file to seed it", dir)
	}
	// CopyFrom keeps the in-memory tier's ID assignment, so the seeded
	// store is bit-identical to what -data-dir-less serving of the same
	// file would query
	if err := ds.CopyFrom(loadTurtle(seed).Reader()); err != nil {
		ds.Close()
		return nil, "", fmt.Errorf("seeding %s: %w", dir, err)
	}
	// the document and the whole memory tier it was copied from are
	// garbage now, as in the memory path
	debug.FreeOSMemory()
	return ds, fmt.Sprintf("%s (seeded from %s)", dir, seed), nil
}

const debugAddrUsage = "serve net/http/pprof under /debug/pprof/ on this address, apart from the serving one (empty: off)"

// debugListen serves the runtime profiles of net/http/pprof on addr, a
// listener of its own that lives as long as the process: profiles are
// there on demand, and never on the address that serves queries. An
// empty addr serves nothing and returns nil.
func debugListen(addr string) net.Listener {
	if addr == "" {
		return nil
	}
	runtime.MemProfileRate = 512 << 10 // the runtime's default
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("hbold: debug listener: %v", err)
	}
	log.Printf("hbold: profiles on http://%s/debug/pprof/", ln.Addr())
	go func() { log.Printf("hbold: debug listener: %v", http.Serve(ln, mux)) }()
	return ln
}

// newLogger builds the CLI's structured logger: text records on stderr,
// so access and slow-query logs interleave with the plain log package's
// startup lines without fighting over stdout.
func newLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hbold serve [-addr :8080] [-datasets N] [-data-dir DIR] [-cache 64] [-slow-query 0] [-readonly=false] [-debug-addr ADDR]
                                            start the presentation layer over a demo corpus
                                            (-data-dir: persist the document store and mirror
                                            each corpus to disk; a restart serves from DIR
                                            without re-extraction; -cache: snapshot cache
                                            budget in MiB, 0 disables; -slow-query: log
                                            /api/query slower than this; -readonly=false
                                            enables POST /api/update — the default refuses
                                            updates with 403; -debug-addr: serve
                                            net/http/pprof on a second listener, as on
                                            daemon and sparqld)
  hbold daemon [-addr :8080] [-datasets N] [-workers 4] [-poll 30s] [-retries 3] [-rate 0] [-data-dir DIR] [-cache 64] [-slow-query 0] [-readonly=false] [-debug-addr ADDR]
                                            serve plus the concurrent extraction scheduler on
                                            the clock-driven §3.1 refresh cycle (-data-dir as
                                            in serve: restart resumes the catalog and skips
                                            re-extracting fresh datasets)
  hbold extract <file.ttl>                  run index extraction on a Turtle file
  hbold render <file.ttl> <outdir>          render all visualizations of a Turtle file to SVG
  hbold crawl                               simulate the §3.3 open-data-portal crawl
  hbold query [-timeout 0] [-stream] <file.ttl> <sparql>
                                            run a SPARQL query over a Turtle file
                                            (-timeout: context deadline; -stream: NDJSON
                                            rows as they arrive instead of a table)
  hbold query -endpoint URL [-endpoint URL ...] [-policy all|prune|cost] <sparql>
                                            federate the query over several live endpoints,
                                            merging the row streams incrementally
  hbold sparqld [-addr :8081] [-data-dir DIR] [-quiet] [-readonly] [-debug-addr ADDR] [file.ttl]
                                            serve a Turtle file as a SPARQL protocol endpoint
                                            (-data-dir: disk-backed store — an empty DIR is
                                            seeded from file.ttl, a populated one serves
                                            straight from disk and the file arg is optional;
                                            SPARQL 1.1 Update accepted via POST
                                            application/sparql-update or update= unless
                                            -readonly, which answers updates with 403;
                                            a federation member for query -endpoint; one
                                            access-log record per request unless -quiet;
                                            results as JSON, CSV, TSV, XML or NDJSON via the
                                            Accept header or ?format=, CONSTRUCT and update
                                            bodies over 10 MiB refused (400, 413))`)
	os.Exit(2)
}

func loadTurtle(path string) *store.Store {
	doc, release, err := mapFile(path)
	if err != nil {
		log.Fatalf("hbold: %v", err)
	}
	// Nothing reads the document once the store is built: Each leaves no
	// goroutine behind, and the store copies every string it keeps. So
	// the mapping goes before the caller's FreeOSMemory.
	defer release()
	// one pass: each parsed triple goes straight into the builder, which
	// copies a term's strings when it first sees it, then one sort lays
	// the store out in its final form
	b := store.NewBuilder()
	if err := turtle.Each(doc, b.Add); err != nil {
		log.Fatalf("hbold: %v", err)
	}
	return b.Store()
}

// readString reads the rest of f into a string with one copy of its
// bytes: the builder is sized from the file, so its buffer is the string.
func readString(f *os.File) (string, error) {
	var b strings.Builder
	if fi, err := f.Stat(); err == nil {
		b.Grow(int(fi.Size()))
	}
	if _, err := io.Copy(&b, f); err != nil {
		return "", err
	}
	return b.String(), nil
}

// newTool builds the core instance for serve/daemon: memory-only by
// default, or rooted at dataDir (document store under docs/, mirrored
// corpora under corpus/) with the persisted registry restored.
func newTool(dataDir string) *core.HBOLD {
	if dataDir == "" {
		return core.New(docstore.MustOpenMem(), clock.Real{})
	}
	db, err := docstore.Open(filepath.Join(dataDir, "docs"))
	if err != nil {
		log.Fatalf("hbold: %v", err)
	}
	tool := core.New(db, clock.Real{})
	tool.CorpusDir = filepath.Join(dataDir, "corpus")
	if err := tool.LoadState(); err != nil {
		log.Fatalf("hbold: %v", err)
	}
	return tool
}

// pipeline runs extract → summary → cluster over a local store.
func pipeline(name string, st *store.Store) (*schema.Summary, *cluster.Schema) {
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	startUp(tool, []candidate{{registry.Entry{URL: name, Title: name, AddedAt: clock.Epoch},
		func() endpoint.Client { return endpoint.LocalClient{Store: st} }}}, nil, 0, true)
	s, _ := tool.Summary(name)
	cs, _ := tool.ClusterSchema(name)
	return s, cs
}

// candidate is a dataset start-up may serve, and how to build its client.
type candidate struct {
	entry  registry.Entry
	client func() endpoint.Client
}

// demoCandidates lists the demo corpus's indexable live endpoints, as
// entry; flaky adds those with an outage model, as remotes that fail by it.
func demoCandidates(tool *core.HBOLD, entry registry.Entry, flaky bool) (out []candidate) {
	for i, d := range synth.Corpus(1) {
		if d.Indexable && !d.Dead && (flaky || d.OutageProb == 0) {
			entry.URL, entry.Title = d.URL, d.Title
			out = append(out, candidate{entry, func() endpoint.Client {
				if d.OutageProb > 0 {
					return endpoint.NewRemote(d.Name, d.URL, synth.BuildStore(d), nil, endpoint.NewAvailability(int64(i), d.OutageProb), tool.Clock)
				}
				return endpoint.LocalClient{Store: synth.BuildStore(d)}
			}})
		}
	}
	return out
}

// startUp brings up the required candidates and the first n optional ones
// that succeed on GOMAXPROCS workers. A worker claims the next candidate,
// registering it (so entries are added in candidate order), and runs its
// unit — build, Connect and, with index, Process — whole; with index a
// dataset a previous life left on disk is reused, nothing built or
// extracted. A failing required candidate is fatal; a failing optional one
// is logged and its worker claims the next: the set is a sequential start-up's.
func startUp(tool *core.HBOLD, required, optional []candidate, n int, index bool) (served, reused int) {
	queue := slices.Concat(required, optional)
	var mu sync.Mutex // guards next, pending, served and reused
	next, pending := 0, 0
	var workers sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			mu.Lock()
			defer mu.Unlock()
			for next < len(queue) && served+pending < len(required)+n {
				i, c := next, queue[next]
				next++
				if tool.Registry.Add(c.entry); index && tool.ServedFromDisk(c.entry.URL) {
					served, reused = served+1, reused+1
					continue
				}
				pending++
				mu.Unlock()
				var err error
				if tool.Connect(c.entry.URL, c.client()); index {
					err = tool.Process(c.entry.URL)
				}
				mu.Lock()
				switch pending--; {
				case err == nil:
					served++
				case i < len(required):
					log.Fatalf("hbold: %v", err)
				default:
					log.Printf("hbold: skip %s: %v", c.entry.URL, err)
				}
			}
		}()
	}
	workers.Wait()
	return served, reused
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int("datasets", 5, "number of demo datasets to index (plus the Scholarly LD)")
	dataDir := fs.String("data-dir", "", "persistent data directory (document store + mirrored corpora); a restart serves from it without re-extraction")
	cacheMB := fs.Int64("cache", 64, "snapshot cache budget in MiB (0 disables caching)")
	slowQuery := fs.Duration("slow-query", 0, "log /api/query requests at least this slow (0 disables)")
	readonly := fs.Bool("readonly", true, "refuse POST /api/update with 403 (default: the demo corpus serves read-only)")
	debugAddr := fs.String("debug-addr", "", debugAddrUsage)
	fs.Parse(args)
	debugListen(*debugAddr)

	tool := newTool(*dataDir)
	tool.Cache = snapcache.New(*cacheMB << 20)
	_, reused := startUp(tool, []candidate{{registry.Entry{URL: "http://scholarly.example.org/sparql", Title: "Scholarly LD"},
		func() endpoint.Client { return endpoint.LocalClient{Store: synth.Scholarly(1)} }}}, demoCandidates(tool, registry.Entry{}, false), *n, true)
	debug.FreeOSMemory() // the builds' garbage, as in sparqld's load
	if *dataDir != "" {
		if err := tool.SaveState(); err != nil {
			log.Fatalf("hbold: %v", err)
		}
		log.Printf("hbold: persistent data in %s (%d datasets served from disk without re-extraction)", *dataDir, reused)
	}
	srv, stop := listen(*addr, tool, *readonly, *slowQuery)
	log.Printf("hbold: serving %d datasets on %s", len(tool.Datasets()), *addr)
	log.Printf("hbold: %s — shutting down", <-stop)
	shutdown(srv, tool, *dataDir)
}

// listen serves the presentation layer over tool on addr in the
// background, and returns the server beside the channel a SIGINT or
// SIGTERM arrives on.
func listen(addr string, tool *core.HBOLD, readonly bool, slowQuery time.Duration) (*http.Server, <-chan os.Signal) {
	handler := server.New(tool)
	handler.ReadOnly = readonly
	if slowQuery > 0 {
		handler.Log = newLogger()
		handler.SlowQuery = slowQuery
	}
	srv := &http.Server{Addr: addr, Handler: handler}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("hbold: %v", err)
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	return srv, stop
}

// shutdown stops HTTP ingress first, so /api/refresh cannot keep
// re-enqueuing jobs while the pool drains (each phase gets its own
// budget), then closes the replicas and — with a data directory —
// persists the registry and the document store: the derived state of
// every update since start-up reaches disk here, beside triples that were
// durable when the update was acknowledged.
func shutdown(srv *http.Server, tool *core.HBOLD, dataDir string) {
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(httpCtx); err != nil {
		log.Printf("hbold: http shutdown: %v", err)
	}
	cancelHTTP()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	if err := tool.Scheduler().Drain(drainCtx); err != nil {
		log.Printf("hbold: drain incomplete: %v", err)
	}
	cancelDrain()
	tool.Close()
	if dataDir != "" {
		if err := tool.SaveState(); err != nil {
			log.Printf("hbold: save state: %v", err)
		}
	}
}

// cmdDaemon runs the server layer the way the deployed tool does:
// endpoints are registered but not indexed up front; the scheduler
// works them off concurrently while the HTTP layer serves whatever is
// indexed so far, plus the live job queue.
func cmdDaemon(args []string) {
	fs := flag.NewFlagSet("daemon", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int("datasets", 12, "number of demo endpoints to register (flaky ones included)")
	workers := fs.Int("workers", 4, "extraction worker pool size")
	poll := fs.Duration("poll", 30*time.Second, "how often to check the §3.1 policy for due endpoints")
	retries := fs.Int("retries", 3, "extraction attempts per job before waiting for the next retry day")
	rate := fs.Float64("rate", 0, "per-endpoint job dispatch limit in jobs/sec (0 = unlimited)")
	dataDir := fs.String("data-dir", "", "persistent data directory (document store + mirrored corpora); a restart resumes the catalog and skips re-extracting fresh datasets")
	cacheMB := fs.Int64("cache", 64, "snapshot cache budget in MiB (0 disables caching)")
	slowQuery := fs.Duration("slow-query", 0, "log /api/query requests at least this slow (0 disables)")
	readonly := fs.Bool("readonly", true, "refuse POST /api/update with 403 (default: the daemon serves read-only)")
	debugAddr := fs.String("debug-addr", "", debugAddrUsage)
	fs.Parse(args)
	debugListen(*debugAddr)

	tool := newTool(*dataDir)
	tool.Cache = snapcache.New(*cacheMB << 20)
	tool.SchedulerConfig = sched.Config{
		Workers: *workers,
		Retry:   sched.RetryPolicy{MaxAttempts: *retries, BaseBackoff: 2 * time.Second, MaxBackoff: time.Minute},
		Rate:    sched.RateLimit{PerSecond: *rate},
	}
	count, _ := startUp(tool, nil, demoCandidates(tool, registry.Entry{Source: registry.SourceDataHub, AddedAt: tool.Clock.Now()}, true), *n, false)
	srv, stop := listen(*addr, tool, *readonly, *slowQuery)
	policy := tool.Registry.Policy()
	if *dataDir != "" {
		// restored entries keep their schedule state: a dataset extracted
		// within the refresh interval is not due, so the boot submit below
		// skips it and its queries run over the persisted artifacts
		log.Printf("hbold: persistent data in %s — %d datasets already indexed on disk", *dataDir, tool.Registry.IndexedCount())
	}
	log.Printf("hbold: daemon on %s — %d endpoints, %d workers, polling every %s (refresh %s, retry %s)",
		*addr, count, *workers, *poll, policy.RefreshInterval, policy.RetryInterval)
	log.Printf("hbold: watch the queue on /api/jobs and /metrics")

	ticker := time.NewTicker(*poll)
	defer ticker.Stop()
	if enq := tool.SubmitDue(); enq > 0 {
		log.Printf("hbold: enqueued %d due endpoints", enq)
	}
	for {
		select {
		case <-ticker.C:
			if enq := tool.SubmitDue(); enq > 0 {
				log.Printf("hbold: enqueued %d due endpoints", enq)
			}
		case sig := <-stop:
			log.Printf("hbold: %s — shutting down", sig)
			shutdown(srv, tool, *dataDir)
			m := tool.Scheduler().Metrics()
			log.Printf("hbold: done — %d succeeded, %d failed, %d retries", m.Succeeded, m.Failed, m.Retries)
			return
		}
	}
}

func cmdExtract(args []string) {
	if len(args) != 1 {
		usage()
	}
	st := loadTurtle(args[0])
	s, cs := pipeline(args[0], st)
	fmt.Printf("dataset        %s\n", args[0])
	fmt.Printf("triples        %d\n", s.Triples)
	fmt.Printf("classes        %d\n", s.NumClasses())
	fmt.Printf("instances      %d\n", s.TotalInstances)
	fmt.Printf("summary edges  %d\n", len(s.Edges))
	fmt.Printf("clusters       %d (modularity %.3f)\n", cs.NumClusters(), cs.Modularity)
	for i, c := range cs.Clusters {
		fmt.Printf("  cluster %-2d %-24s %d classes, %d instances\n", i, c.Label, len(c.Classes), c.Instances)
	}
}

func cmdRender(args []string) {
	if len(args) != 2 {
		usage()
	}
	st := loadTurtle(args[0])
	s, cs := pipeline(args[0], st)
	outdir := args[1]
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatalf("hbold: %v", err)
	}
	focus := ""
	if len(s.Nodes) > 0 {
		// focus the highest-degree class, like the paper's Figure 7
		best, bestD := "", -1
		for _, n := range s.Nodes {
			if d := s.Degree(n.IRI); d > bestD {
				best, bestD = n.IRI, d
			}
		}
		focus = best
	}
	files := map[string][]byte{
		"treemap.svg":       viz.TreemapView(cs, s, 1000, 700),
		"sunburst.svg":      viz.SunburstView(cs, s, 800),
		"circlepack.svg":    viz.CirclePackView(cs, s, 800),
		"bundle.svg":        viz.BundleView(cs, s, focus, 900),
		"cluster-graph.svg": viz.ClusterGraphView(cs, 900),
		"summary-graph.svg": viz.SummaryGraphView(s, nil, 900),
	}
	for name, content := range files {
		path := filepath.Join(outdir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			log.Fatalf("hbold: %v", err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
	}
}

func cmdCrawl() {
	corpus := synth.Corpus(1)
	portals := portal.BuildAll(corpus)
	reg := registry.New(registry.DefaultPolicy)
	for _, d := range corpus {
		if d.PreExisting {
			reg.Add(registry.Entry{URL: d.URL, Title: d.Title, Source: registry.SourceDataHub})
		}
	}
	fmt.Printf("endpoints listed before crawl: %d\n", reg.Len())
	rep, err := crawler.Crawl(context.Background(), portals, reg, clock.Epoch)
	if err != nil {
		log.Fatalf("hbold: %v", err)
	}
	for _, pr := range rep.Portals {
		fmt.Printf("  %-22s discovered %2d, already listed %2d, added %2d\n",
			pr.Portal, pr.Discovered, pr.AlreadyListed, pr.Added)
	}
	fmt.Printf("endpoints listed after crawl:  %d (+%d)\n", rep.ListedAfter, rep.TotalAdded())
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
	stream := fs.Bool("stream", false, "print rows as NDJSON as they arrive instead of a table")
	policy := fs.String("policy", "all", "federated source selection: all, prune, or cost")
	var endpoints multiFlag
	fs.Var(&endpoints, "endpoint", "SPARQL endpoint URL; repeat to federate over several (replaces the <file.ttl> argument)")
	fs.Parse(args)
	args = fs.Args()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var c endpoint.Client
	switch {
	case len(endpoints) > 0:
		if len(args) != 1 {
			usage()
		}
		pol, err := federation.ParsePolicy(*policy)
		if err != nil {
			log.Fatalf("hbold: %v", err)
		}
		sources := make([]*endpoint.Source, 0, len(endpoints))
		for _, u := range endpoints {
			src := endpoint.NewSource(u, u, endpoint.NewHTTPClient(u))
			src.Cost = endpoint.DefaultCost
			sources = append(sources, src)
		}
		fed := federation.New(sources...)
		// no local index store to prune by, and the CLI has no per-source
		// cost data: prune and cost both degenerate to fanning out in
		// configuration order
		fed.Policy = pol
		// same resilience posture as the server's federation: route
		// around members that refuse to open, hedge slow opens
		fed.SkipUnavailable = true
		fed.Hedge = true
		c = fed
		args = []string{"", args[0]}
	case len(args) == 2:
		c = endpoint.LocalClient{Store: loadTurtle(args[0])}
	default:
		usage()
	}
	if !*stream {
		res, err := c.Query(ctx, args[1])
		if err != nil {
			log.Fatalf("hbold: %v", err)
		}
		fmt.Print(res.Table())
		return
	}
	rs, err := endpoint.Stream(ctx, c, args[1])
	if err != nil {
		log.Fatalf("hbold: %v", err)
	}
	defer rs.Close()
	if rs.Graph != nil {
		// CONSTRUCT has no row stream; print the graph as triples
		for _, tr := range rs.Graph.Triples() {
			fmt.Println(tr.String())
		}
		return
	}
	// the same NDJSON framing, written by the same loop, as /api/query
	if _, err := results.Serve(os.Stdout, results.NDJSON, rs); err != nil {
		log.Fatalf("hbold: stream failed: %v", err)
	}
}
