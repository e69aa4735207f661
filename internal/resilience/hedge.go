package resilience

import (
	"sort"
	"sync"
	"time"
)

// Hedge-delay defaults; see NewHedgeDelay.
const (
	// DefaultHedgeWindow is the sample window the percentile is taken
	// over.
	DefaultHedgeWindow = 32
	// hedgeMinSamples is how many observations the tracker wants before
	// trusting the percentile over the seed.
	hedgeMinSamples = 8
	// hedgePercentile is the first-row latency percentile a hedge fires
	// at: waiting out the p90 means at most ~10% of opens hedge, so the
	// extra load is bounded while the tail (the hedge's whole point) is
	// covered.
	hedgePercentile = 0.90
)

// HedgeDelay derives when a hedged second attempt should launch: the
// p90 of the source's recent first-row latencies, so hedges fire only
// on tail-slow opens (~10% of them) rather than doubling every
// request. Until enough samples accumulate it answers with the caller's
// seed — the cost model's expectation of the source (federation passes
// twice CostModel.BaseLatency), which is exactly the information
// available before any row has been observed. Safe for concurrent use; a
// nil tracker learns nothing and always answers the seed.
type HedgeDelay struct {
	mu      sync.Mutex
	samples []time.Duration // ring of recent first-row latencies
	n       int             // samples recorded, saturating
	i       int             // next ring slot
}

// NewHedgeDelay builds a tracker over the last window samples; window
// <= 0 means DefaultHedgeWindow.
func NewHedgeDelay(window int) *HedgeDelay {
	if window <= 0 {
		window = DefaultHedgeWindow
	}
	return &HedgeDelay{samples: make([]time.Duration, window)}
}

// Observe records one open-to-first-row latency.
func (h *HedgeDelay) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	h.mu.Lock()
	h.samples[h.i] = d
	h.i = (h.i + 1) % len(h.samples)
	if h.n < len(h.samples) {
		h.n++
	}
	h.mu.Unlock()
}

// Delay returns the current hedge delay: seed until hedgeMinSamples
// observations exist, the windowed p90 of observed first-row latencies
// afterwards.
func (h *HedgeDelay) Delay(seed time.Duration) time.Duration {
	if h == nil {
		return seed
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < hedgeMinSamples {
		return seed
	}
	sorted := make([]time.Duration, h.n)
	copy(sorted, h.samples[:h.n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(hedgePercentile * float64(h.n))
	if idx >= h.n {
		idx = h.n - 1
	}
	return sorted[idx]
}
