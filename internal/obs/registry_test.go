package obs

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("hits_total", "hits"); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("y", "").Set(1)
	r.Histogram("z", "", nil).Observe(1)
	r.CounterVec("cv", "", "l").With("a").Inc()
	r.GaugeVec("gv", "", "l").With("a").Set(1)
	r.HistogramVec("hv", "", nil, "l").With("a").Observe(1)
	r.CounterFunc("cf", "", func() float64 { return 1 })
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
}

// TestHistogramBucketEdges covers the satellite edge cases: observation
// exactly on a bound, negative observation, and overflow past the last
// bound.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 5, 10})

	h.Observe(5)    // exact bound → le=5 bucket (inclusive)
	h.Observe(-3)   // negative → first bucket
	h.Observe(11)   // overflow → +Inf bucket
	h.Observe(0.5)  // → le=1
	h.Observe(10)   // exact last bound → le=10, not +Inf
	h.Observe(5.01) // just past a bound → le=10

	want := []int64{2, 1, 2, 1} // le=1, le=5, le=10, +Inf
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-28.51) > 1e-9 {
		t.Fatalf("sum = %v, want 28.51", h.Sum())
	}
	if h.Max() != 11 {
		t.Fatalf("max = %v, want 11", h.Max())
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{10, 1, 5})
	b := h.Bounds()
	if b[0] != 1 || b[1] != 5 || b[2] != 10 {
		t.Fatalf("bounds not sorted: %v", b)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "source", "kind")
	v.With("a", "select").Add(2)
	v.With("b", "ask").Inc()
	v.With("a", "select").Inc()

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("families = %d, want 1", len(snap))
	}
	fam := snap[0]
	if len(fam.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fam.Series))
	}
	if fam.Series[0].Labels["source"] != "a" || fam.Series[0].Value != 3 {
		t.Fatalf("series[0] = %+v", fam.Series[0])
	}
	if fam.Series[1].Labels["kind"] != "ask" || fam.Series[1].Value != 1 {
		t.Fatalf("series[1] = %+v", fam.Series[1])
	}
}

func TestCallbackFamilies(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("cb_total", "callback", func() float64 { return n })
	n++
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Series[0].Value != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestConcurrentRegistry exercises the registry under the race detector:
// parallel writers on counters, gauges, labeled histograms, plus a
// concurrent scraper snapshotting mid-flight.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 500

	var writersWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			c := r.Counter("conc_total", "")
			g := r.Gauge("conc_gauge", "")
			hv := r.HistogramVec("conc_lat", "", []float64{0.25, 0.5, 0.75}, "writer")
			h := hv.With(string(rune('a' + w%4)))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	scraperWG.Wait()

	if got := r.Counter("conc_total", "").Value(); got != writers*perWriter {
		t.Fatalf("counter = %v, want %d", got, writers*perWriter)
	}
	var total int64
	for _, fam := range r.Snapshot() {
		if fam.Name != "conc_lat" {
			continue
		}
		for _, s := range fam.Series {
			total += s.Hist.Count
		}
	}
	if total != writers*perWriter {
		t.Fatalf("histogram observations = %d, want %d", total, writers*perWriter)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.").Add(3)
	r.GaugeVec("app_up", "Source availability.", "source").With(`we"ird\src`).Set(1)
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE app_requests_total counter",
		"app_requests_total 3",
		"# TYPE app_up gauge",
		`app_up{source="we\"ird\\src"} 1`,
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 2.55",
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output must end with a newline")
	}
}

func TestSpans(t *testing.T) {
	now := time.Unix(100, 0)
	tr := NewTrace(func() time.Time { return now })
	s := tr.StartSpan("join")
	now = now.Add(25 * time.Millisecond)
	s.SetRows(100, 40)
	s.End()
	s.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Name != "join" || spans[0].Duration != 25*time.Millisecond ||
		spans[0].RowsIn != 100 || spans[0].RowsOut != 40 {
		t.Fatalf("span = %+v", spans[0])
	}

	// nil trace is free
	var nt *Trace
	ns := nt.StartSpan("x")
	ns.SetRows(1, 1)
	ns.End()
	if nt.Spans() != nil {
		t.Fatalf("nil trace has spans")
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if RegistryFrom(ctx) != nil || TraceFrom(ctx) != nil {
		t.Fatal("empty context should carry nothing")
	}
	r := NewRegistry()
	tr := NewTrace(nil)
	ctx = WithRegistry(ctx, r)
	ctx = WithTrace(ctx, tr)
	if RegistryFrom(ctx) != r {
		t.Fatal("registry not carried")
	}
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not carried")
	}
	if s := StartSpan(ctx, "stage"); s == nil {
		t.Fatal("StartSpan returned nil with a trace present")
	}
	if s := StartSpan(context.Background(), "stage"); s != nil {
		t.Fatal("StartSpan should be nil without a trace")
	}
}

// TestRuntimeGauges: the runtime gauges read runtime/metrics at scrape
// time, and what they read is plausible for a running test binary.
func TestRuntimeGauges(t *testing.T) {
	runtime.GC() // the live heap is measured by a collection
	r := NewRegistry()
	RegisterRuntime(r)
	got := map[string]float64{}
	for _, f := range r.Snapshot() {
		got[f.Name] = f.Series[0].Value
	}
	if got["hbold_go_goroutines"] < 1 {
		t.Errorf("hbold_go_goroutines = %v, want at least this one", got["hbold_go_goroutines"])
	}
	if got["hbold_go_heap_live_bytes"] <= 0 {
		t.Errorf("hbold_go_heap_live_bytes = %v, want a live heap", got["hbold_go_heap_live_bytes"])
	}
	if f, ok := got["hbold_go_gc_cpu_fraction"]; !ok || f < 0 || f > 1 {
		t.Errorf("hbold_go_gc_cpu_fraction = %v (present %v), want a fraction", f, ok)
	}
}
