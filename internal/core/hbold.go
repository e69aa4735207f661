// Package core is the H-BOLD facade: it wires the server layer (index
// extraction, Schema Summary and Cluster Schema computation, document
// storage, scheduling, crawling, manual insertion) to the presentation
// layer (dataset list, hierarchical exploration, visualization views) —
// the architecture of the paper's Figure 1.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/crawler"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/federation"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/portal"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/schema"
	"repro/internal/snapcache"
	"repro/internal/update"
)

// Collection names in the document store (the MongoDB stand-in).
const (
	CollIndexes   = "indexes"
	CollSummaries = "summaries"
	CollClusters  = "clusters"
	CollRegistry  = "registry"
	CollDiffs     = "diffs"
	// CollGeneration holds each dataset's generation number, written by
	// the commit that wrote its documents.
	CollGeneration = "generation"
)

// DefaultCacheBudget is the byte budget of the snapshot cache a fresh
// instance gets; cmd/hbold's -cache flag overrides it.
const DefaultCacheBudget int64 = 64 << 20

// HBOLD is the tool: one instance owns the endpoint registry, the
// document store and the processing pipeline.
type HBOLD struct {
	Registry  *registry.Registry
	DB        *docstore.DB
	Extractor *extraction.Extractor
	Outbox    *notify.Outbox
	Clock     clock.Clock
	// Seed drives community detection determinism.
	Seed int64
	// SchedulerConfig parameterizes the shared extraction scheduler; it
	// is consulted once, on the first Scheduler() call, so set it before
	// any scheduling method runs. The zero value gets sched defaults
	// plus this instance's Clock and a retry hook honoring the
	// registry's give-up policy.
	SchedulerConfig sched.Config
	// Cache is the versioned snapshot cache for the presentation read
	// path: internal/server memoizes encoded JSON bodies, layout models
	// and rendered SVG in it. Entries are keyed by dataset generation, so
	// a commit never serves stale data. New installs a DefaultCacheBudget
	// cache; replace it (before serving traffic) to resize, or set
	// snapcache.New(0) to disable caching.
	Cache *snapcache.Cache
	// Metrics is the process-lifetime observability registry: the
	// scheduler, the snapshot cache, federated queries, HTTP endpoint
	// clients and the query engine all account into it, and the server
	// renders it at GET /metrics. New installs one and registers the
	// cache families; subsystems join as they are created.
	Metrics *obs.Registry
	// Breakers is the process-wide circuit breaker set, one breaker per
	// endpoint URL, shared by every consumer of that endpoint: federated
	// fan-outs consult and feed it, and the extraction scheduler's
	// failure path feeds it too — an endpoint that keeps failing
	// extraction is held out of federated queries before they waste
	// requests on it. New installs a default-config set reporting into
	// Metrics; replace it (before traffic) to tune thresholds.
	Breakers *resilience.BreakerSet
	// RetryBudget is the process-wide retry budget every HTTP endpoint
	// client connected through Connect spends from, capping fleet-wide
	// retry amplification during a shared outage. New installs a
	// default-size budget; nil disables budgeting.
	RetryBudget *resilience.Budget
	// CorpusDir, when non-empty, makes every dataset's local tier
	// persistent: a refresh mirrors the endpoint's statement set into a
	// disk-backed replica under this directory (one data dir per
	// endpoint) and indexes the replica, which from then on answers the
	// dataset's queries and takes its updates — in a restarted instance
	// too, with nothing connected (see tier). Set it before the first
	// Process call; empty keeps the pipeline memory-only.
	CorpusDir string

	// datasets maps an endpoint URL to its *dataset record.
	datasets sync.Map

	// feed is the change feed ApplyUpdate publishes to; Changes exposes it.
	feed *update.Feed

	schedMu sync.Mutex
	sched   *sched.Scheduler
}

// New builds an H-BOLD instance over the given document store. A nil db
// gets a memory-only store; a nil ck uses the real clock.
func New(db *docstore.DB, ck clock.Clock) *HBOLD {
	if db == nil {
		db = docstore.MustOpenMem()
	}
	if ck == nil {
		ck = clock.Real{}
	}
	metrics := obs.NewRegistry()
	h := &HBOLD{
		Registry:    registry.New(registry.DefaultPolicy),
		DB:          db,
		Extractor:   extraction.New(),
		Outbox:      notify.NewOutbox(),
		Clock:       ck,
		Cache:       snapcache.New(DefaultCacheBudget),
		Metrics:     metrics,
		Breakers:    resilience.NewBreakerSet(resilience.BreakerConfig{Clock: ck}, metrics),
		RetryBudget: resilience.NewBudget(0, 0),
		feed:        update.NewFeed(),
	}
	// read through h so a later Cache replacement is picked up by the
	// same metric series
	snapcache.Register(h.Metrics, func() snapcache.Stats { return h.Cache.Stats() })
	h.registerCorpusMetrics()
	obs.RegisterRuntime(h.Metrics)
	return h
}

// Generation returns the dataset's generation (State.Generation).
func (h *HBOLD) Generation(url string) uint64 { return h.State(url).Generation }

// Connect associates a SPARQL client with an endpoint URL. In the
// deployed tool this is the HTTP connection to the public endpoint; in
// experiments it is a simulated remote.
func (h *HBOLD) Connect(url string, c endpoint.Client) {
	// HTTP clients join the process registry and the shared retry budget
	// unless the caller already pointed them at their own
	if hc, ok := c.(*endpoint.HTTPClient); ok {
		if hc.Metrics == nil {
			hc.Metrics = h.Metrics
		}
		if hc.Budget == nil {
			hc.Budget = h.RetryBudget
		}
	}
	h.dataset(url).upstream.Store(&c)
}

// Process runs the full server-layer pipeline for one endpoint: index
// extraction, Schema Summary computation, Cluster Schema computation
// (server-side, per §3.2) and persistence. It records the outcome in the
// registry and sends the §3.4 notification when a submitter is waiting.
func (h *HBOLD) Process(url string) error {
	return h.process(context.Background(), url, true)
}

// process is the pipeline body. recordFail controls whether a failure
// is recorded in the registry here: direct Process calls record every
// failure, while the scheduler suppresses per-attempt recording and
// records once per job through its OnJobFailed hook — otherwise a few
// seconds of in-run retries would eat a give-up budget the §3.1 policy
// means to spend one day at a time. The context reaches every SPARQL
// query on the wire (a scheduler Stop aborts an extraction mid-page);
// a canceled pipeline is not an endpoint failure and records nothing.
func (h *HBOLD) process(ctx context.Context, url string, recordFail bool) error {
	now := h.Clock.Now()
	st, err := h.refresh(ctx, url, now)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// a canceled run says nothing about the endpoint
			return cerr
		}
		// unconnectable endpoints go through the same failure path as
		// extraction errors: the registry attempt is recorded and a
		// waiting §3.4 submitter is notified
		if recordFail {
			h.recordFailure(url, now, err)
		}
		return err
	}
	if h.Registry.Has(url) {
		if err := h.Registry.RecordSuccess(url, now); err != nil {
			return err
		}
	} else {
		h.Registry.Add(registry.Entry{URL: url, Title: url, Source: registry.SourceManual, AddedAt: now})
		h.Registry.RecordSuccess(url, now)
	}
	if email, ok := h.Registry.TakePendingEmail(url); ok {
		h.Outbox.Send(email, "H-BOLD: extraction completed",
			notify.SuccessBody(url, st.summary.NumClasses(), st.summary.TotalInstances), now)
	}
	// a source whose refresh succeeds is healthy for federated queries too
	h.Breakers.For(url).Success()
	return nil
}

// refresh is the part of the pipeline that changes what readers see, one
// critical section: an update of this dataset lands wholly before the
// refresh reads the corpus or wholly after the refresh is published —
// never between, where the refresh would publish an index predating it.
// With a corpus directory the upstream only feeds the mirror — page at a
// time, each page one durable batch — and the index is extracted from the
// replica; a restored dataset, with nothing connected, re-extracts from
// its replica alone.
func (h *HBOLD) refresh(ctx context.Context, url string, now time.Time) (*State, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ds, err := h.known(url)
	if err != nil {
		return nil, err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	up := ds.upstream.Load()
	mirrored := h.CorpusDir != "" && up != nil
	if mirrored {
		// Insert dedups, so re-mirroring only adds what changed
		r, err := h.openReplica(ds, url)
		if err == nil {
			_, err = h.Extractor.MirrorCorpus(ctx, *up, r)
		}
		if err != nil {
			return nil, fmt.Errorf("core: mirroring %s: %w", url, err)
		}
	}
	c, err := h.tier(url, mirrored)
	if err != nil {
		return nil, err
	}
	ix, err := h.Extractor.Extract(ctx, c, url, now)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, _, err := h.commit(ds, url, ix)
	return st, err
}

func (h *HBOLD) recordFailure(url string, now time.Time, cause error) {
	if h.Registry.Has(url) {
		h.Registry.RecordFailure(url, now)
		e, _ := h.Registry.Get(url)
		// a manual submitter is notified on the first failure too
		if e.PendingEmail != "" {
			if email, ok := h.Registry.TakePendingEmail(url); ok {
				h.Outbox.Send(email, "H-BOLD: extraction failed",
					notify.FailureBody(url, cause), now)
			}
		}
	}
}

// Scheduler returns the shared extraction scheduler, creating and
// starting it on first use. Its runner is the Process pipeline; its
// configuration comes from SchedulerConfig, with the instance clock
// filled in. The registry's §3.1 give-up policy is enforced by
// Registry.Due (which stops listing endpoints past the threshold)
// together with once-per-job failure recording, so no Retryable hook
// is needed for it.
func (h *HBOLD) Scheduler() *sched.Scheduler {
	h.schedMu.Lock()
	defer h.schedMu.Unlock()
	if h.sched == nil {
		cfg := h.SchedulerConfig
		if cfg.Clock == nil {
			cfg.Clock = h.Clock
		}
		if cfg.Metrics == nil {
			cfg.Metrics = h.Metrics
		}
		if cfg.OnJobFailed == nil {
			cfg.OnJobFailed = func(url string, err error) {
				if errors.Is(err, context.Canceled) {
					// a shutdown abort says nothing about the endpoint
					return
				}
				h.recordFailure(url, h.Clock.Now(), err)
				// extraction failures feed the shared breaker: a source
				// failing scheduled refreshes is held out of federated
				// queries too
				h.Breakers.For(url).Failure()
			}
		}
		// the runner suppresses per-attempt failure recording; the
		// OnJobFailed hook above records once per job instead
		h.sched = sched.New(cfg, func(ctx context.Context, url string) error {
			return h.process(ctx, url, false)
		})
		h.sched.Start(context.Background())
	}
	return h.sched
}

// Close stops the extraction scheduler, if one was started — running
// jobs finish, queued jobs are discarded — then flushes and closes the
// persistent corpus stores. The rest of the instance (registry, store,
// presentation reads) remains usable.
func (h *HBOLD) Close() {
	if s := h.peekScheduler(); s != nil {
		s.Stop()
	}
	h.closeReplicas()
}

// peekScheduler returns the scheduler only if one has been started.
func (h *HBOLD) peekScheduler() *sched.Scheduler {
	h.schedMu.Lock()
	defer h.schedMu.Unlock()
	return h.sched
}

// SchedulerJobs returns the scheduler's job snapshot without starting
// a scheduler as a side effect: before any scheduling has happened the
// list is empty. The read-only observability API uses it.
func (h *HBOLD) SchedulerJobs() []sched.Job {
	if s := h.peekScheduler(); s != nil {
		return s.Jobs()
	}
	return []sched.Job{}
}

// submitDue enqueues every endpoint the §3.1 policy marks as due.
// Manual §3.4 submissions still awaiting their notification are
// enqueued ahead of routine refreshes.
func (h *HBOLD) submitDue() []*sched.Ticket {
	s := h.Scheduler()
	var tickets []*sched.Ticket
	for _, url := range h.Registry.Due(h.Clock.Now()) {
		pri := sched.Routine
		if e, known := h.Registry.Get(url); known && e.PendingEmail != "" {
			pri = sched.Manual
		}
		if t, err := s.Submit(url, pri); err == nil {
			tickets = append(tickets, t)
		}
	}
	return tickets
}

// SubmitDue enqueues every due endpoint on the shared scheduler without
// waiting for completion and returns the number of jobs enqueued. The
// daemon's refresh tick and the /api/refresh endpoint use it; watch
// progress via the scheduler's job and metrics snapshots.
func (h *HBOLD) SubmitDue() int {
	return len(h.submitDue())
}

// RunDueConcurrent processes every due endpoint on the shared worker
// pool and blocks until all of them finish (or ctx is done, at which
// point unfinished jobs count as failures). It returns the number of
// endpoints processed successfully and the number that failed.
func (h *HBOLD) RunDueConcurrent(ctx context.Context) (ok, failed int) {
	for _, t := range h.submitDue() {
		if st, err := t.Wait(ctx); st == sched.StateSucceeded && err == nil {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// RunDue processes every endpoint the §3.1 policy marks as due; it is
// the body of the daily server-layer job, now a thin synchronous
// wrapper over the concurrent scheduler. It returns the number of
// endpoints processed successfully and the number that failed.
func (h *HBOLD) RunDue() (ok, failed int) {
	return h.RunDueConcurrent(context.Background())
}

// CrawlPortals runs the §3.3 crawler over the portals and merges the
// discovered endpoints into the registry.
func (h *HBOLD) CrawlPortals(ctx context.Context, portals []*portal.Portal) (*crawler.Report, error) {
	return crawler.Crawl(ctx, portals, h.Registry, h.Clock.Now())
}

// EndpointClient returns the SPARQL client over url's local tier (see
// tier), for callers that run their own queries against the dataset —
// the server's streaming /api/query route and the query builder UI.
func (h *HBOLD) EndpointClient(url string) (endpoint.Client, error) {
	return h.tier(url, false)
}

// served lists, sorted, the URLs that resolve to a tier: every connected
// one and, with a corpus directory, every one with a committed index.
func (h *HBOLD) served() []string {
	var urls []string
	if h.CorpusDir != "" {
		urls = h.DB.Collection(CollIndexes).IDs()
	}
	h.datasets.Range(func(url, ds any) bool {
		if ds.(*dataset).upstream.Load() != nil {
			urls = append(urls, url.(string))
		}
		return true
	})
	sort.Strings(urls)
	return slices.Compact(urls)
}

// Federation builds a federated client over datasets' local tiers: one
// endpoint.Source per URL (every served dataset when urls is empty),
// each sharing the URL's process-wide circuit breaker and hedge-delay
// tracker, with index pruning answered from the datasets' published
// State — whatever generation is current when a query selects its
// sources. The returned client implements endpoint.Client/Streamer like
// any single endpoint; unavailable members are routed around rather than
// failing the whole query. Build a fresh federation per request or hold
// one — it is safe for concurrent queries.
func (h *HBOLD) Federation(urls []string, policy federation.Policy) (*federation.Client, error) {
	if len(urls) == 0 {
		urls = h.served()
	}
	if len(urls) == 0 {
		return nil, errors.New("core: no endpoints connected to federate over")
	}
	sources := make([]*endpoint.Source, 0, len(urls))
	for _, u := range urls {
		c, err := h.tier(u, false)
		if err != nil {
			return nil, err
		}
		src := endpoint.NewSource(u, u, c)
		src.Cost = endpoint.DefaultCost
		// a Remote's name, cost and availability describe the remote: they
		// apply when queries are forwarded to it, not when a replica answers
		if r, ok := c.(*endpoint.Remote); ok {
			src.Name, src.Cost, src.Up = r.Name, r.Cost, r.Up
		}
		// the registry title is the curated display name; it outranks
		// the simulation-layer name when both exist
		if e, ok := h.Registry.Get(u); ok && e.Title != "" {
			src.Name = e.Title
		}
		src.Breaker = h.Breakers.For(u)
		src.Hedge = h.dataset(u).hedge
		sources = append(sources, src)
	}
	f := federation.New(sources...)
	f.Policy = policy
	f.SkipUnavailable = true
	f.Hedge = true
	f.Vocabulary = func(url string) (extraction.Vocabulary, bool) {
		st := h.State(url)
		return st.Vocabulary, st.index != nil
	}
	// the per-source series outlive this per-request federation
	f.Metrics = h.Metrics
	return f, nil
}

// SubmitEndpoint implements the §3.4 manual insertion: the user provides
// the endpoint URL and an e-mail address for the completion notification.
func (h *HBOLD) SubmitEndpoint(url, title, email string) error {
	return h.Registry.Submit(url, title, email, h.Clock.Now())
}

// --- presentation layer reads ---

// DatasetInfo is one row of the dataset list.
type DatasetInfo struct {
	URL            string `json:"url"`
	Title          string `json:"title"`
	Classes        int    `json:"classes"`
	Instances      int    `json:"instances"`
	Triples        int    `json:"triples"`
	Clusters       int    `json:"clusters"`
	LastExtraction string `json:"lastExtraction"`
}

// Datasets lists the indexed datasets, sorted by URL — the presentation
// layer's entry screen.
func (h *HBOLD) Datasets() []DatasetInfo {
	var out []DatasetInfo
	for _, e := range h.Registry.Entries() {
		if !e.Indexed {
			continue
		}
		st := h.State(e.URL)
		s := st.summary
		if s == nil {
			continue
		}
		clusters := 0
		if st.clusters != nil {
			clusters = st.clusters.NumClusters()
		}
		out = append(out, DatasetInfo{
			URL: e.URL, Title: e.Title,
			Classes: s.NumClasses(), Instances: s.TotalInstances,
			Triples: s.Triples, Clusters: clusters,
			LastExtraction: e.LastSuccess.Format("2006-01-02"),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Summary returns the dataset's Schema Summary (State.Summary). The
// value is shared across callers and must be treated as immutable.
func (h *HBOLD) Summary(url string) (*schema.Summary, error) { return h.State(url).Summary() }

// ClusterSchema returns the dataset's precomputed (§3.2) Cluster Schema
// (State.ClusterSchema), shared and immutable like Summary.
func (h *HBOLD) ClusterSchema(url string) (*cluster.Schema, error) {
	return h.State(url).ClusterSchema()
}

// ClusterSchemaOnTheFly recomputes the Cluster Schema from the stored
// Schema Summary, as the pre-§3.2 versions of the tool did on every user
// click. It exists for the E2 experiment comparing the two paths.
func (h *HBOLD) ClusterSchemaOnTheFly(url string) (*cluster.Schema, error) {
	s, err := h.Summary(url)
	if err != nil {
		return nil, err
	}
	return cluster.Build(s, cluster.Options{Seed: h.Seed})
}

// Explore starts a presentation-layer exploration session on a dataset,
// focused on a class (State.Explore).
func (h *HBOLD) Explore(url, focusIRI string) (*schema.Exploration, error) {
	return h.State(url).Explore(focusIRI)
}

// LastDiff returns the schema change recorded by the most recent
// re-extraction of the dataset, if any refresh changed anything.
func (h *HBOLD) LastDiff(url string) (*schema.Diff, bool) {
	var d schema.Diff
	if err := h.DB.Collection(CollDiffs).Get(url, &d); err != nil {
		return nil, false
	}
	return &d, true
}

// SaveState persists the endpoint registry into the document store and
// flushes the store to disk (when file-backed), so a restarted instance
// resumes with the same catalog and schedule state.
func (h *HBOLD) SaveState() error {
	if err := h.DB.Collection(CollRegistry).Put("entries", h.Registry.Entries()); err != nil {
		return err
	}
	return h.DB.Flush()
}

// LoadState restores the endpoint registry persisted by SaveState. A
// missing snapshot is not an error (fresh instance).
func (h *HBOLD) LoadState() error {
	var entries []registry.Entry
	err := h.DB.Collection(CollRegistry).Get("entries", &entries)
	if err != nil {
		if errors.Is(err, docstore.ErrNotFound) {
			return nil
		}
		return err
	}
	h.Registry.Restore(entries)
	return nil
}

// Index returns the dataset's extraction index (State.Index), shared
// and immutable like Summary: Clone it before adjusting it.
func (h *HBOLD) Index(url string) (*extraction.Index, error) { return h.State(url).Index() }
