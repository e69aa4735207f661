package main

import "fmt"

// metricDef is one catalogue entry; BENCHMARK.json lists exactly these
// (a self-test compares the two).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload on every untraced run. They are deliberately class-agnostic:
// the driver's contract wants every workload to report every end-to-end
// metric with a value that is never 0, and no op class is issued by all
// four workloads (views do not exist on sparqld, updates do not exist on
// the read-only two). The per-class latencies the issue lists live in the
// per-layer catalogue as http.p50_ms.<op> / http.p99_ms.<op>; the README
// says what that leaves ungated.
//
// The two throughputs weigh the same ops differently: ops_per_s by count,
// mb_per_s by the body bytes they move, which on the disk workload is
// mostly the writer's INSERT DATA — its ingest rate. The timing bounds are
// the contract's largest because this shared two-core sandbox drifts by
// 10–20 % within minutes; resident memory does not, and is held tighter.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"mb_per_s", "MB/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.15},
}

var drainKinds = []opKind{kPoint, kTyped, kJoin, kGroup, kTopK, kDistinct, kScan}

var viewKinds = []string{"treemap", "sunburst", "circlepack", "bundle", "cluster-graph", "summary-graph"}
var modelKinds = []string{"treemap", "sunburst", "circlepack"}
var updateShapes = []string{"small", "bulk", "where"}

// perLayer builds the per-layer catalogue: module names are layer names.
// A workload reports 0 for a layer it bypasses — that is the prediction
// ("flat") made checkable.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }
	lower := func(unit string, names ...string) {
		for _, n := range names {
			add(n, unit, "lower")
		}
	}
	lower("us", "sparql.parse_us", "sparql.open_us")
	for _, k := range drainKinds {
		add("sparql.drain_us."+k.String(), "us", "lower")
	}
	lower("ns", "sparql.drain_ns_per_row")
	add("sparql.rows_per_query", "count", "lower")
	lower("us", "sparql.update_parse_us")
	for _, f := range formats {
		add("results.write_ns_per_row."+f, "ns", "lower")
	}
	for _, f := range formats {
		add("results.bytes_per_row."+f, "B", "lower")
	}
	lower("us", "store.reader_us")
	lower("ns", "store.lookup_ns", "store.match_ns_per_triple")
	lower("us", "store.insert_us_per_triple", "store.delete_us_per_triple")
	lower("ns", "store.load_ns_per_triple", "turtle.parse_ns_per_triple")
	lower("us", "disk.snapshot_us")
	lower("ns", "disk.match_ns_per_triple", "disk.term_ns")
	add("disk.termcache_hit_ratio", "ratio", "higher")
	lower("us", "disk.insert_us_per_triple", "disk.flush_us")
	lower("ms", "disk.cold_open_ms", "disk.restart_ms")
	lower("B", "disk.bytes_per_triple")
	lower("us", "kv.snapshot_us")
	add("kv.memtable_keys_at_snapshot", "count", "lower")
	lower("us", "kv.get_us")
	lower("ns", "kv.scan_ns_per_key")
	lower("us", "kv.apply_us")
	lower("B", "kv.wal_bytes_per_triple")
	add("kv.flushes", "count", "lower")
	add("kv.compactions", "count", "lower")
	add("kv.segments", "count", "lower")
	lower("B", "kv.segment_bytes_per_triple")
	for _, s := range updateShapes {
		add("update.apply_us."+s, "us", "lower")
	}
	lower("us", "extraction.apply_delta_us", "schema.build_us", "cluster.build_us", "schema.compare_us",
		"docstore.put_us", "docstore.get_us", "core.apply_update_us")
	lower("ms", "extraction.extract_ms")
	add("snapcache.hit_ratio", "ratio", "higher")
	add("snapcache.invalidations", "count", "lower")
	add("snapcache.evictions", "count", "lower")
	lower("us", "server.hit_us", "server.miss_us", "server.revalidate_304_us", "server.query_us")
	for _, v := range viewKinds {
		add("viz.render_us."+v, "us", "lower")
	}
	for _, m := range modelKinds {
		add("viz.model_us."+m, "us", "lower")
	}
	lower("us", "core.explore_us", "federation.open_us")
	lower("ns", "federation.merge_ns_per_row")
	add("federation.pruned_ratio", "ratio", "higher")
	lower("us", "endpoint.rtt_floor_us")
	for _, c := range []opClass{cLookup, cAnalytic, cScan, cUpdate} {
		add("endpoint.residual_us."+c.String(), "us", "lower")
	}
	for k := opKind(0); k < numKinds; k++ {
		add("http.p50_ms."+k.String(), "ms", "lower")
	}
	for k := opKind(0); k < numKinds; k++ {
		add("http.p99_ms."+k.String(), "ms", "lower")
	}
	lower("ms", "http.first_byte_p50_ms.scan", "http.read_p95_ms")
	lower("MiB", "server.peak_rss_mb")
	add("bench.admit_wait_ratio", "ratio", "lower")
	lower("ns", "trace.span_overhead_ns")
	for c := opClass(0); c < numClasses; c++ {
		add("trace.reconcile_gap."+c.String(), "ratio", "lower")
	}
	if len(out) > 128 {
		panic(fmt.Sprintf("bench: %d per-layer metrics, the contract allows 128", len(out)))
	}
	return out
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
