package sched

import (
	"time"

	"repro/internal/obs"
)

// latBounds are the upper bounds of the attempt-latency histogram
// buckets; a final overflow bucket catches everything slower. They are
// the canonical duration form of obs.DurationBuckets, and the Metrics
// snapshot renders its le strings from them.
var latBounds = []time.Duration{
	time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 5 * time.Second, 30 * time.Second,
}

// latSeconds is latBounds in float seconds, the unit the obs registry
// stores histograms in.
var latSeconds = func() []float64 {
	out := make([]float64, len(latBounds))
	for i, d := range latBounds {
		out[i] = d.Seconds()
	}
	return out
}()

// metrics holds the scheduler's registry-backed counter handles. The
// series live on the Config.Metrics registry (a private one when the
// caller did not supply any), so a server-owned registry accumulates
// scheduler counters for /metrics while per-test schedulers stay
// isolated.
type metrics struct {
	submitted    *obs.Counter
	succeeded    *obs.Counter
	failed       *obs.Counter
	canceled     *obs.Counter
	retries      *obs.Counter
	rateDeferred *obs.Counter
	deduped      *obs.Counter
	latency      *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		submitted:    r.Counter("hbold_sched_submitted_total", "Jobs submitted to the extraction scheduler."),
		succeeded:    r.Counter("hbold_sched_succeeded_total", "Scheduler jobs that completed successfully."),
		failed:       r.Counter("hbold_sched_failed_total", "Scheduler jobs that exhausted retries and failed."),
		canceled:     r.Counter("hbold_sched_canceled_total", "Scheduler jobs canceled by shutdown."),
		retries:      r.Counter("hbold_sched_retries_total", "In-run retry attempts scheduled after failures."),
		rateDeferred: r.Counter("hbold_sched_rate_deferred_total", "Dispatches deferred by the per-endpoint rate limit."),
		deduped:      r.Counter("hbold_sched_deduped_total", "Submissions coalesced onto an already-active job."),
		latency:      r.Histogram("hbold_sched_attempt_seconds", "Wall time of scheduler job attempts.", latSeconds),
	}
}

// registerGauges exposes the live queue depths as callback gauges, read
// under the scheduler mutex at scrape time.
func (s *Scheduler) registerGauges(r *obs.Registry) {
	lockedInt := func(f func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}
	}
	r.GaugeFunc("hbold_sched_queued", "Jobs in the ready queue.", lockedInt(func() int { return s.ready.Len() }))
	r.GaugeFunc("hbold_sched_waiting", "Jobs parked on a backoff or rate-limit deadline.", lockedInt(func() int { return s.waiting.Len() }))
	r.GaugeFunc("hbold_sched_running", "Jobs currently executing.", lockedInt(func() int { return s.running }))
	r.GaugeFunc("hbold_sched_workers", "Configured worker-pool size.", func() float64 { return float64(s.cfg.Workers) })
}

// observeLatency records one attempt duration.
func (m *metrics) observeLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.latency.Observe(d.Seconds())
}

// Bucket is one latency histogram bucket: the count of attempts that
// completed within Le (a duration string; "+Inf" for the overflow).
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Metrics is a point-in-time snapshot of the scheduler for in-process
// callers (the daemon's shutdown line, tests); over HTTP the same series
// are the hbold_sched_* families on /metrics.
type Metrics struct {
	Workers int `json:"workers"`

	Queued  int `json:"queued"`
	Waiting int `json:"waiting"`
	Running int `json:"running"`

	Submitted    int64 `json:"submitted"`
	Succeeded    int64 `json:"succeeded"`
	Failed       int64 `json:"failed"`
	Canceled     int64 `json:"canceled"`
	Retries      int64 `json:"retries"`
	RateDeferred int64 `json:"rateDeferred"`
	Deduped      int64 `json:"deduped"`

	LatencyCount  int64    `json:"latencyCount"`
	LatencyMeanMs float64  `json:"latencyMeanMs"`
	LatencyMaxMs  float64  `json:"latencyMaxMs"`
	Latency       []Bucket `json:"latency"`
}

// Metrics returns a snapshot of counters, queue gauges and the attempt
// latency histogram, read off the same registry handles /metrics renders.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	workers := s.cfg.Workers
	queued := s.ready.Len()
	waiting := s.waiting.Len()
	running := s.running
	s.mu.Unlock()

	out := Metrics{
		Workers:      workers,
		Queued:       queued,
		Waiting:      waiting,
		Running:      running,
		Submitted:    int64(s.m.submitted.Value()),
		Succeeded:    int64(s.m.succeeded.Value()),
		Failed:       int64(s.m.failed.Value()),
		Canceled:     int64(s.m.canceled.Value()),
		Retries:      int64(s.m.retries.Value()),
		RateDeferred: int64(s.m.rateDeferred.Value()),
		Deduped:      int64(s.m.deduped.Value()),
		LatencyCount: s.m.latency.Count(),
		LatencyMaxMs: s.m.latency.Max() * 1e3,
		Latency:      make([]Bucket, 0, len(latBounds)+1),
	}
	if out.LatencyCount > 0 {
		out.LatencyMeanMs = s.m.latency.Sum() / float64(out.LatencyCount) * 1e3
	}
	counts := s.m.latency.BucketCounts()
	for i, bound := range latBounds {
		out.Latency = append(out.Latency, Bucket{Le: bound.String(), Count: counts[i]})
	}
	out.Latency = append(out.Latency, Bucket{Le: "+Inf", Count: counts[len(latBounds)]})
	return out
}
