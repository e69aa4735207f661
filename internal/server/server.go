// Package server is H-BOLD's HTTP presentation layer: the dataset list,
// the exploration API (class focus, iterative expansion with coverage
// feedback), the visualization endpoints rendering the §3.5 layouts as
// SVG, the query API (visual query-builder models and raw SPARQL,
// streamed as NDJSON rows over the request context), and the §3.4
// manual insertion form. It is a thin adapter over internal/core.
//
// Dataset-derived responses (summary, cluster, class detail, layout
// models, SVG views) are versioned by the dataset's generation: each
// carries an ETag of the form "<url>@<generation>" plus Cache-Control,
// answers If-None-Match revalidations with 304 without recomputing
// anything, and is memoized in the instance's snapshot cache
// (internal/snapcache) keyed by that same generation — except the bundle
// view, whose bytes read only the dataset's topology and which is keyed by
// the topology epoch (core.State.Topology), so its entries outlive updates
// that only move counts. A commit thus invalidates every view whose
// inputs it may have changed, and only those.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/endpoint"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/querybuilder"
	"repro/internal/schema"
	"repro/internal/snapcache"
	"repro/internal/sparql"
	"repro/internal/sparql/results"
	"repro/internal/update"
	"repro/internal/viz"
)

// Server exposes one H-BOLD instance over HTTP.
type Server struct {
	Tool *core.HBOLD
	// Log, when set together with SlowQuery, receives one record per
	// /api/query request whose total duration (stream drain included)
	// reached SlowQuery: query hash, duration, rows streamed.
	Log *slog.Logger
	// SlowQuery is the slow-query threshold; zero disables the log.
	SlowQuery time.Duration
	// ReadOnly answers every POST /api/update with 403; the change feed
	// stays readable. The serve CLI mode defaults to read-only.
	ReadOnly bool
	mux      *http.ServeMux
	// stages is hbold_stage_seconds: time spent in the stages of a
	// request this package owns, labeled by stage (see stage).
	stages *obs.HistogramVec
}

// stageBuckets are hbold_stage_seconds' bounds, in seconds. A stage is a
// part of a request — rendering a view takes 0.2–2 ms — so they start
// two decades below obs.DurationBuckets.
var stageBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.5}

// New builds the server and its routes.
func New(tool *core.HBOLD) *Server {
	s := &Server{Tool: tool, mux: http.NewServeMux()}
	s.stages = tool.Metrics.HistogramVec("hbold_stage_seconds",
		"Time spent per request stage; stage names are the benchmark's layer names.", stageBuckets, "stage")
	tool.Metrics.CounterFunc("hbold_viz_placement_reuses_total",
		"Graph-view renders that took their node positions from the placement memo.",
		func() float64 { reused, _ := viz.PlacementStats(); return float64(reused) })
	tool.Metrics.CounterFunc("hbold_viz_placement_computes_total",
		"Graph-view renders that ran the force-directed simulation.",
		func() float64 { _, computed := viz.PlacementStats(); return float64(computed) })
	tool.Metrics.CounterFunc("hbold_cluster_partition_reuses_total",
		"Cluster Schema builds that took their partition from the memo.",
		func() float64 { reused, _ := cluster.PartitionStats(); return float64(reused) })
	tool.Metrics.CounterFunc("hbold_cluster_partition_computes_total",
		"Cluster Schema builds that ran community detection.",
		func() float64 { _, computed := cluster.PartitionStats(); return float64(computed) })
	s.mux.HandleFunc("/", s.handleHome)
	s.mux.HandleFunc("/metrics", s.handlePromMetrics)
	s.mux.HandleFunc("/api/datasets", s.handleDatasets)
	s.mux.HandleFunc("/api/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/federation/stats", s.handleFederationStats)
	s.mux.HandleFunc("/api/cache", s.handleCache)
	s.mux.HandleFunc("/api/refresh", s.handleRefresh)
	s.mux.HandleFunc("/api/summary", s.handleSummary)
	s.mux.HandleFunc("/api/cluster", s.handleCluster)
	s.mux.HandleFunc("/api/explore", s.handleExplore)
	s.mux.HandleFunc("/api/class", s.handleClass)
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/update", s.handleUpdate)
	s.mux.HandleFunc("/api/changes", s.handleChanges)
	s.mux.HandleFunc("/api/model/treemap", s.handleModel("treemap"))
	s.mux.HandleFunc("/api/model/sunburst", s.handleModel("sunburst"))
	s.mux.HandleFunc("/api/model/circlepack", s.handleModel("circlepack"))
	s.mux.HandleFunc("/view/treemap", s.handleView("treemap"))
	s.mux.HandleFunc("/view/sunburst", s.handleView("sunburst"))
	s.mux.HandleFunc("/view/circlepack", s.handleView("circlepack"))
	s.mux.HandleFunc("/view/bundle", s.handleView("bundle"))
	s.mux.HandleFunc("/view/cluster-graph", s.handleView("cluster-graph"))
	s.mux.HandleFunc("/view/summary-graph", s.handleView("summary-graph"))
	s.mux.HandleFunc("/submit", s.handleSubmit)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var homeTmpl = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>H-BOLD — High-level Visualization over Big Linked Open Data</title></head>
<body>
<h1>H-BOLD</h1>
<p>{{len .}} indexed Linked Data sources. Pick one to explore its Cluster Schema or Schema Summary.</p>
<table border="1" cellpadding="4">
<tr><th>Dataset</th><th>Classes</th><th>Clusters</th><th>Instances</th><th>Triples</th><th>Last extraction</th><th>Views</th></tr>
{{range .}}
<tr>
<td>{{.Title}}</td><td>{{.Classes}}</td><td>{{.Clusters}}</td><td>{{.Instances}}</td><td>{{.Triples}}</td><td>{{.LastExtraction}}</td>
<td>
<a href="/view/cluster-graph?dataset={{.URL}}">cluster</a>
<a href="/view/treemap?dataset={{.URL}}">treemap</a>
<a href="/view/sunburst?dataset={{.URL}}">sunburst</a>
<a href="/view/circlepack?dataset={{.URL}}">pack</a>
<a href="/view/bundle?dataset={{.URL}}">bundling</a>
<a href="/view/summary-graph?dataset={{.URL}}">summary</a>
</td>
</tr>
{{end}}
</table>
<h2>Insert a new SPARQL endpoint</h2>
<form method="POST" action="/submit">
URL: <input name="url" size="50">
E-mail: <input name="email" size="30">
Title: <input name="title" size="30">
<input type="submit" value="Submit">
</form>
<p>Since the index extraction procedure can be time-consuming, you will be
notified by e-mail about the status of the extraction. The address is
deleted once the notification is sent.</p>
</body></html>`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTmpl.Execute(w, s.Tool.Datasets()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Tool.Datasets())
}

// handleJobs reports every pending and running extraction job plus the
// most recent completed ones — the live view of the scheduler queue.
// Reads are side-effect free: they never start a scheduler.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Tool.SchedulerJobs())
}

// handlePromMetrics renders the process metrics registry in the
// Prometheus text exposition format — every subsystem that accounts into
// core's registry (scheduler, snapshot cache, federation, endpoint HTTP
// clients, query engine) shows up on one scrape surface.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Tool.Metrics.WritePrometheus(w)
}

// handleFederationStats reports the process-lifetime per-source
// federation series from the metrics registry, stamped with the capture
// time. The registry is the only per-source accounting, accumulated
// across every federated query the process served.
func (s *Server) handleFederationStats(w http.ResponseWriter, r *http.Request) {
	fields := map[string]string{
		"hbold_federation_queries_total":         "queries",
		"hbold_federation_rows_total":            "rows",
		"hbold_federation_errors_total":          "errors",
		"hbold_federation_unavailable_total":     "unavailable",
		"hbold_federation_pruned_total":          "pruned",
		"hbold_federation_first_row_seconds":     "firstRowSeconds",
		"hbold_federation_elapsed_seconds_total": "elapsedSeconds",
	}
	sources := map[string]map[string]float64{}
	for _, fam := range s.Tool.Metrics.Snapshot() {
		field, ok := fields[fam.Name]
		if !ok {
			continue
		}
		for _, se := range fam.Series {
			src := se.Labels["source"]
			if src == "" {
				continue
			}
			m := sources[src]
			if m == nil {
				m = map[string]float64{}
				sources[src] = m
			}
			m[field] = se.Value
		}
	}
	writeJSON(w, map[string]any{
		"capturedAt": s.Tool.Clock.Now(),
		"sources":    sources,
		// per-source circuit breaker state ("closed"/"half-open"/"open"
		// plus the last transition time, from the instance clock), so an
		// operator sees which members queries are currently routed around
		"breakers": s.Tool.Breakers.Snapshot(),
	})
}

// handleRefresh enqueues every due endpoint on the scheduler without
// waiting; clients watch /api/jobs for progress.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to trigger a refresh cycle", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, map[string]int{"submitted": s.Tool.SubmitDue()})
}

func (s *Server) dataset(r *http.Request) string {
	return r.URL.Query().Get("dataset")
}

// handleCache reports snapshot-cache effectiveness counters (hits,
// misses, singleflight collapses, evictions, resident bytes).
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Tool.Cache.Stats())
}

// etagMatches reports whether an If-None-Match header value matches
// etag: "*" matches anything, lists are comma-separated, and weak
// validators ("W/...") compare by opaque tag as RFC 9110 prescribes
// for If-None-Match. Tags are parsed as quoted strings rather than
// split on commas, because our ETags embed the dataset URL and a URL
// (like any RFC 9110 opaque tag) may legally contain commas.
func etagMatches(header, etag string) bool {
	for header != "" {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		if header[0] == '*' {
			return true
		}
		rest := strings.TrimPrefix(header, "W/")
		if rest == "" || rest[0] != '"' {
			// malformed member: skip to the next list separator
			i := strings.IndexByte(header, ',')
			if i < 0 {
				return false
			}
			header = header[i+1:]
			continue
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return false
		}
		if rest[:end+2] == etag {
			return true
		}
		header = rest[end+2:]
	}
	return false
}

// etagOf spells the validator of one dataset generation: the quoted
// string strconv.Quote(url + "@" + generation) — so a URL holding a
// quote or a comma still yields one well-formed opaque tag — built by
// appending (quoting is per rune, so the quoted URL minus its closing
// quote is the prefix of the quoted whole).
func etagOf(url string, generation uint64) string {
	var buf [128]byte
	b := strconv.AppendQuote(buf[:0], url)
	b = append(b[:len(b)-1], '@')
	b = strconv.AppendUint(b, generation, 10)
	return string(append(b, '"'))
}

// preflight stamps the versioned validator headers of the state the
// handler is about to serve (ETag "<url>@<generation>" and
// Cache-Control) and answers a matching If-None-Match revalidation with
// 304 Not Modified, reporting whether the request is already fully
// handled. The handler takes its cache key and its builder's inputs from
// the same State, so a validator never names bytes of another
// generation, whatever commits meanwhile. Datasets that never had a
// commit (generation 0) get no validator and no 304 — the handler then
// 404s or serves as usual.
func (s *Server) preflight(w http.ResponseWriter, r *http.Request, st *core.State) (done bool) {
	if st.Generation == 0 {
		return false
	}
	etag := etagOf(st.URL, st.Generation)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=0, must-revalidate")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// snapshot serves a response memoized in the snapshot cache, keyed by
// (st.URL, st.Generation, view, params) — or, for the bundle view, by
// st.Topology in place of the generation. What is cached is the wire body
// itself: a hit is a lookup, a Content-Length and one Write of the
// shared slice. body runs only on a miss, must read the dataset through
// st alone, and gives up ownership of what it returns.
func (s *Server) snapshot(w http.ResponseWriter, st *core.State, view, params, contentType string, body func() ([]byte, error)) {
	key := snapcache.Key{URL: st.URL, Generation: st.Generation, View: view, Params: params}
	if view == "view:bundle" {
		key.Generation, key.Topology = st.Topology, true
	}
	b, err := s.Tool.Cache.GetOrCompute(key, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// snapshotJSON is snapshot for a JSON model: the cached body is the
// encoding with its trailing newline already on it.
func (s *Server) snapshotJSON(w http.ResponseWriter, st *core.State, view, params string, build func() (any, error)) {
	s.snapshot(w, st, view, params, "application/json", func() ([]byte, error) {
		model, err := build()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(model)
		if err != nil {
			return nil, err
		}
		return append(body, '\n'), nil
	})
}

// stage returns a function that observes the time since this call under
// hbold_stage_seconds{stage=name}. The names are bench/layers.go's layer
// names, so a production histogram and a benchmark row are the same
// quantity.
func (s *Server) stage(name string) (done func()) {
	start := time.Now()
	return func() { s.stages.With(name).Observe(time.Since(start).Seconds()) }
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	st := s.Tool.State(s.dataset(r))
	if s.preflight(w, r, st) {
		return
	}
	s.snapshotJSON(w, st, "api:summary", "", func() (any, error) { return st.Summary() })
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := s.Tool.State(s.dataset(r))
	if s.preflight(w, r, st) {
		return
	}
	s.snapshotJSON(w, st, "api:cluster", "", func() (any, error) { return st.ClusterSchema() })
}

// exploreResponse is the JSON shape of one exploration step: the visible
// classes, the coverage feedback of Figure 2, and the visible edges.
type exploreResponse struct {
	Focus    string        `json:"focus"`
	Visible  []string      `json:"visible"`
	Nodes    int           `json:"nodes"`
	Coverage float64       `json:"coveragePercent"`
	Complete bool          `json:"complete"`
	Edges    []schema.Edge `json:"edges"`
}

// handleExplore starts at ?focus= and applies ?expand= (comma-separated
// class IRIs, expanded in order), returning the resulting partial view.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	st := s.Tool.State(s.dataset(r))
	if s.preflight(w, r, st) {
		return
	}
	focus := r.URL.Query().Get("focus")
	ex, err := st.Explore(focus)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if expand := r.URL.Query().Get("expand"); expand != "" {
		for _, c := range strings.Split(expand, ",") {
			if _, err := ex.Expand(strings.TrimSpace(c)); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
	}
	if r.URL.Query().Get("all") == "true" {
		ex.ExpandAll()
	}
	writeJSON(w, exploreResponse{
		Focus:    focus,
		Visible:  ex.Visible(),
		Nodes:    ex.NodeCount(),
		Coverage: ex.Coverage(),
		Complete: ex.Complete(),
		Edges:    ex.VisibleEdges(),
	})
}

// handleClass returns the class detail panel of Figure 2 step 2:
// attributes plus incoming and outgoing properties.
func (s *Server) handleClass(w http.ResponseWriter, r *http.Request) {
	st := s.Tool.State(s.dataset(r))
	if s.preflight(w, r, st) {
		return
	}
	class := r.URL.Query().Get("class")
	s.snapshotJSON(w, st, "api:class", class, func() (any, error) {
		sum, cs, err := st.Schemas()
		if err != nil {
			return nil, err
		}
		detail, ok := viz.ClassDetailOf(cs, sum, class)
		if !ok {
			return nil, fmt.Errorf("unknown class")
		}
		return detail, nil
	})
}

// handleModel serves the layout geometry as JSON instead of SVG, for
// clients that render themselves (as the deployed tool's D3 frontend
// did).
func (s *Server) handleModel(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := s.Tool.State(s.dataset(r))
		if s.preflight(w, r, st) {
			return
		}
		s.snapshotJSON(w, st, "model:"+kind, "", func() (any, error) {
			sum, cs, err := st.Schemas()
			if err != nil {
				return nil, err
			}
			defer s.stage("viz.model." + kind)()
			switch kind {
			case "treemap":
				return viz.TreemapModelOf(cs, sum, 1000, 700), nil
			case "sunburst":
				return viz.SunburstModelOf(cs, sum, 400), nil
			case "circlepack":
				return viz.CirclePackModelOf(cs, sum, 800), nil
			}
			return nil, fmt.Errorf("unknown model %q", kind)
		})
	}
}

// handleQuery is the query API. Three request shapes share the route:
//
//   - POST application/json (a visual query model) without a dataset or
//     sources, or with ?build=only: generate the SPARQL text and return
//     it — the original query-builder contract.
//   - POST application/json with ?dataset= or ?sources=: generate the
//     SPARQL and run it, streaming rows.
//   - GET or form POST with ?sparql= and ?dataset= or ?sources=: run raw
//     SPARQL, streaming rows.
//
// The target is either one endpoint (?dataset=URL) or a federation:
// ?sources=URL,URL,... fans the query out to the named endpoints
// (?sources=all federates over every connected endpoint) and streams the
// merged rows — in the query's global order for ORDER BY queries, which
// the federation re-establishes with an ordered merge. ?policy=
// all|prune|cost selects the federation's source selection (default
// prune: endpoints whose extracted index proves they cannot contribute —
// a missing class, or a missing predicate when the index carries the
// full-corpus predicate scan — are not contacted). The shapes a
// same-query fan-out cannot answer faithfully are refused by the
// federation itself (federation.Refusal) and answered 400.
//
// Everything from the Content-Type to the last byte of the result is
// results.Serve, the loop sparqld serves with too: NDJSON by default
// (the streaming-native framing: a head line {"vars": [...]}, then one
// SPARQL-JSON binding object per row), any W3C serialization via
// ?format= / Accept, bytes leaving at 32 KiB, at the end of the
// document, or once the oldest has waited 10 ms, a mid-stream failure reported the way the format allows (NDJSON: a final
// {"error": ...} line — the status code is long gone by then, which is
// the streaming trade-off). The request context cancels the query when
// the client goes away; ?timeout=30s adds a server-side deadline, and
// ?limit=N caps the response at N rows — the stream ends cleanly and
// evaluation is canceled through the same context path as a client
// hang-up.
//
// ?partial=ok (federated NDJSON only) degrades instead of aborting: a
// member dying mid-stream is dropped from the merge, the healthy
// branches keep streaming, the head line carries "partial":"ok" and a
// final {"incomplete": [...]} trailer names every dropped source (empty
// when all delivered). Only the NDJSON framing can report the
// degradation honestly, so the four W3C formats ignore the parameter and
// keep their hard-abort contract; and only a federation has branches to
// drop, so partial=ok without sources= is a request error.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// the registry rides the context so the engine's per-query series
	// (count, duration, rows by kind) record for local evaluations
	ctx := obs.WithRegistry(r.Context(), s.Tool.Metrics)
	start := time.Now()
	rows := 0
	var text string
	if s.Log != nil && s.SlowQuery > 0 {
		defer func() {
			if d := time.Since(start); d >= s.SlowQuery {
				s.Log.Warn("slow query",
					"query", endpoint.QueryHash(text),
					"dur", d,
					"rows", rows)
			}
		}()
	}
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "GET or POST a query", http.StatusMethodNotAllowed)
		return
	}
	form := r.URL.Query()
	switch {
	case r.Method == http.MethodGet:
	case strings.HasPrefix(r.Header.Get("Content-Type"), "application/json"):
		var q querybuilder.Query
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, endpoint.MaxBodyBytes)).Decode(&q); err != nil {
			http.Error(w, err.Error(), endpoint.BodyErrorStatus(err))
			return
		}
		built, err := q.Build()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if (form.Get("dataset") == "" && form.Get("sources") == "") || form.Get("build") == "only" {
			writeJSON(w, map[string]string{"sparql": built})
			return
		}
		text = built
	default:
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form", http.StatusBadRequest)
			return
		}
		// r.Form merges body and query string, so both documented
		// placements of every parameter work
		form = r.Form
	}
	if text == "" {
		text = form.Get("sparql")
	}
	if text == "" {
		http.Error(w, "missing sparql query", http.StatusBadRequest)
		return
	}
	// syntax errors in the user's query are the user's problem (400),
	// not the endpoint's (502)
	if _, err := sparql.Parse(text); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format, err := results.Negotiate(form.Get("format"), r.Header.Get("Accept"), results.NDJSON)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sel := form.Get("sources")
	partialOK := false
	switch form.Get("partial") {
	case "":
	case "ok":
		if sel == "" {
			http.Error(w, "partial=ok requires sources=; a single dataset has no branches to drop", http.StatusBadRequest)
			return
		}
		partialOK = format == results.NDJSON
	default:
		http.Error(w, "bad partial parameter: the only mode is partial=ok", http.StatusBadRequest)
		return
	}
	var c endpoint.Client
	var fed *federation.Client
	if sel != "" {
		policy := federation.IndexPrune
		if p := form.Get("policy"); p != "" {
			if policy, err = federation.ParsePolicy(p); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		var urls []string
		if sel != "all" && sel != "*" {
			for _, u := range strings.Split(sel, ",") {
				if u = strings.TrimSpace(u); u != "" {
					urls = append(urls, u)
				}
			}
		}
		if fed, err = s.Tool.Federation(urls, policy); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		c = fed
	} else {
		url := form.Get("dataset")
		if url == "" {
			http.Error(w, "missing dataset or sources parameter", http.StatusBadRequest)
			return
		}
		if c, err = s.Tool.EndpointClient(url); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	}
	limit := -1
	if l := form.Get("limit"); l != "" {
		if limit, err = strconv.Atoi(l); err != nil || limit < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	if t := form.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			http.Error(w, "bad timeout", http.StatusBadRequest)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// Every evaluation under this handler hangs off this context: a
	// satisfied ?limit= cancels it on the way out, stopping in-flight
	// branches exactly like a client hang-up would.
	ctx, cancelQuery := context.WithCancel(ctx)
	defer cancelQuery()
	if e := form.Get("explain"); e == "1" || e == "true" {
		// EXPLAIN runs the query to completion with the profiler attached
		// and answers with the annotated plan instead of rows. Only
		// in-process evaluation can profile: a federated query spans
		// engines (400), and the SPARQL protocol has no EXPLAIN verb.
		if fed != nil {
			http.Error(w, "explain is not supported over sources=; query a single dataset", http.StatusBadRequest)
			return
		}
		ex, ok := c.(endpoint.Explainer)
		if !ok {
			http.Error(w, "this endpoint cannot explain queries", http.StatusBadRequest)
			return
		}
		profile, err := ex.Explain(ctx, text)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		rows = profile.Rows
		writeJSON(w, profile)
		return
	}
	var rs *sparql.RowSeq
	var partial *federation.Partial
	if partialOK {
		rs, partial, err = fed.StreamPartial(ctx, text)
	} else {
		rs, err = endpoint.Stream(ctx, c, text)
	}
	if err != nil {
		status := http.StatusBadGateway
		if errors.As(err, new(federation.Refusal)) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	defer rs.Close()
	if limit >= 0 && !rs.Ask {
		// cap the row stream: Limit closes the underlying stream when the
		// cap is reached, and the deferred cancel unwinds anything still
		// evaluating behind it
		rs = rs.Limit(limit)
	}
	if partial == nil {
		if rows, err = results.Serve(w, format, rs); errors.Is(err, results.ErrConstruct) {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	// partial mode: the shared row loop between a head that announces the
	// mode and the machine-readable degradation trailer — always present,
	// empty when every selected source delivered in full
	w.Header().Set("Content-Type", format.ContentType())
	if rs.Ask {
		json.NewEncoder(w).Encode(map[string]any{"ask": true, "boolean": rs.Boolean, "incomplete": incompleteSources(partial)})
		return
	}
	rw := results.NewNDJSONWriter(w, rs.Vars, map[string]any{"partial": "ok", "vars": rs.Vars})
	if rows, err = results.WriteRows(w, rw, rs); err == nil {
		json.NewEncoder(w).Encode(map[string][]string{"incomplete": incompleteSources(partial)})
	}
}

// handleUpdate is the mutation API: POST a SPARQL 1.1 Update request —
// raw body with Content-Type application/sparql-update, or an update=
// form field; endpoint.ServeUpdate, the reader sparqld uses — against
// ?dataset=. The update applies to the dataset's writable local tier,
// every derived artifact (index, summary, cluster schema, caches, ETags)
// is maintained incrementally, and the response reports the net delta,
// the new generation and the change-feed sequence number. A read-only
// instance answers 403.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SPARQL update", http.StatusMethodNotAllowed)
		return
	}
	_, status := endpoint.ServeUpdate(w, r, s.ReadOnly, func(ctx context.Context, text string) (any, error) {
		url := s.dataset(r)
		if url == "" {
			url = r.PostForm.Get("dataset")
		}
		if url == "" {
			return nil, errors.New("missing dataset parameter")
		}
		return s.Tool.ApplyUpdate(ctx, url, text)
	})
	if status == 0 {
		http.Error(w, "missing update request", http.StatusBadRequest)
	}
}

// handleChanges streams the change feed as NDJSON: one event object per
// applied update. ?since=N replays the buffered events with Seq > N
// first (the feed retains a bounded ring; a consumer further behind
// re-reads the dataset instead), ?dataset= filters to one dataset, and
// ?follow=false closes after the replay instead of streaming live —
// the polling shape. The live stream ends when the client disconnects.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = n
	}
	ds := s.dataset(r)
	backlog, ch, cancel := s.Tool.Changes().Subscribe(since)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev update.Event) bool {
		if ds != "" && ev.Dataset != ds {
			return true
		}
		if enc.Encode(ev) != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range backlog {
		if !emit(ev) {
			return
		}
	}
	if r.URL.Query().Get("follow") == "false" {
		return
	}
	if flusher != nil {
		flusher.Flush() // commit headers so the subscriber sees the stream open
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// incompleteSources is Partial.Incomplete with a non-nil guarantee, so
// the NDJSON trailer encodes [] rather than null when nothing dropped.
func incompleteSources(p *federation.Partial) []string {
	if inc := p.Incomplete(); inc != nil {
		return inc
	}
	return []string{}
}

// handleView serves one §3.5 visualization as rendered SVG. The render
// is memoized per (dataset, generation, kind, view parameters) — the
// bundle per topology epoch instead of generation: the bundle's focus
// class and the summary graph's visible set are part of the cache key,
// the visible set canonicalized (trimmed, empty names and repeats
// dropped, sorted) so equivalent requests share one entry.
func (s *Server) handleView(kind string) http.HandlerFunc {
	view := "view:" + kind
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		st := s.Tool.State(q.Get("dataset"))
		if s.preflight(w, r, st) {
			return
		}
		params := ""
		switch kind {
		case "bundle":
			params = "focus=" + q.Get("focus")
		case "summary-graph":
			if vis := q.Get("visible"); vis != "" {
				var classes []string
				for _, c := range strings.Split(vis, ",") {
					if c = strings.TrimSpace(c); c != "" {
						classes = append(classes, c)
					}
				}
				slices.Sort(classes)
				params = "visible=" + strings.Join(slices.Compact(classes), ",")
			}
		}
		s.snapshot(w, st, view, params, "image/svg+xml", func() ([]byte, error) {
			sum, cs, err := st.Schemas()
			if err != nil {
				return nil, err
			}
			defer s.stage("viz.render." + kind)()
			switch kind {
			case "treemap":
				return viz.TreemapView(cs, sum, 1000, 700), nil
			case "sunburst":
				return viz.SunburstView(cs, sum, 800), nil
			case "circlepack":
				return viz.CirclePackView(cs, sum, 800), nil
			case "bundle":
				return viz.BundleView(cs, sum, q.Get("focus"), 900), nil
			case "cluster-graph":
				return viz.ClusterGraphView(cs, 900), nil
			case "summary-graph":
				var visible map[string]bool
				if p, ok := strings.CutPrefix(params, "visible="); ok {
					visible = map[string]bool{}
					for _, c := range strings.Split(p, ",") {
						visible[c] = true
					}
				}
				return viz.SummaryGraphView(sum, visible, 900), nil
			}
			return nil, fmt.Errorf("unknown view %q", kind)
		})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST the submission form", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	url := r.PostForm.Get("url")
	email := r.PostForm.Get("email")
	title := r.PostForm.Get("title")
	if title == "" {
		title = url
	}
	if err := s.Tool.SubmitEndpoint(url, title, email); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "Endpoint %s submitted. You will be notified at %s when the index extraction completes.\n", url, email)
}
