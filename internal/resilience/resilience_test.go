package resilience

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

func TestBreakerConsecutiveTrip(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	b := NewBreaker(BreakerConfig{Failures: 3, OpenFor: 30 * time.Second, Clock: ck})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker should still admit", i)
		}
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the window")
	}
	// success resets the consecutive count while closed
	b2 := NewBreaker(BreakerConfig{Failures: 3, Clock: ck})
	b2.Failure()
	b2.Failure()
	b2.Success()
	b2.Failure()
	b2.Failure()
	if b2.State() != Closed {
		t.Fatal("interleaved successes must reset the consecutive count")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: 30 * time.Second, Clock: ck})
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted")
	}
	ck.Advance(29 * time.Second)
	if b.Allow() {
		t.Fatal("admitted before the open window expired")
	}
	ck.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("expired window must admit a probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// only one probe per interval
	if b.Allow() {
		t.Fatal("second probe admitted inside the probe interval")
	}
	// probe failure reopens
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	ck.Advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe window must admit")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must admit")
	}
}

func TestBreakerVanishedProbeDoesNotWedge(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: 10 * time.Second, Clock: ck})
	b.Failure()
	ck.Advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	// the probe never reports (its query was torn down); the next
	// interval must admit another rather than wedging half-open forever
	ck.Advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("vanished probe wedged the breaker")
	}
}

func TestBreakerRatioTrip(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	b := NewBreaker(BreakerConfig{Failures: 100, Window: 10, Ratio: 0.5, Clock: ck})
	// alternate success/failure: consecutive never passes 1, but once the
	// window fills at 50% failures the ratio trips
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			b.Success()
		} else {
			b.Failure()
		}
	}
	if b.State() != Open {
		t.Fatalf("state after 50%% failures over a full window = %v, want open", b.State())
	}
}

func TestBreakerTransitionsAndSince(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	var log []State
	b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: 5 * time.Second, Clock: ck,
		OnTransition: func(from, to State, at time.Time) { log = append(log, to) }})
	b.Failure()
	openAt := ck.Now()
	if got := b.Since(); !got.Equal(openAt) {
		t.Fatalf("Since = %v, want %v", got, openAt)
	}
	ck.Advance(6 * time.Second)
	b.Allow()
	b.Success()
	want := []State{Open, HalfOpen, Closed}
	if len(log) != len(want) {
		t.Fatalf("transitions = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, log[i], want[i])
		}
	}
}

func TestBreakerNilSafety(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must admit")
	}
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("nil breaker state must read closed")
	}
	var s *BreakerSet
	if s.For("x") != nil {
		t.Fatal("nil set must hand out nil breakers")
	}
	if s.Snapshot() != nil {
		t.Fatal("nil set snapshot must be nil")
	}
}

func TestBreakerSetSharesAndReports(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	reg := obs.NewRegistry()
	set := NewBreakerSet(BreakerConfig{Failures: 2, Clock: ck}, reg)
	if set.For("http://a") != set.For("http://a") {
		t.Fatal("same URL must share one breaker")
	}
	set.For("http://a").Failure()
	set.For("http://a").Failure()
	if set.For("http://a").State() != Open {
		t.Fatal("shared breaker did not trip")
	}
	snap := set.Snapshot()
	if snap["http://a"].State != Open {
		t.Fatalf("snapshot state = %v, want open", snap["http://a"].State)
	}
	var stateVal, sinceVal float64
	trips := -1.0
	for _, fam := range reg.Snapshot() {
		for _, se := range fam.Series {
			if se.Labels["source"] != "http://a" {
				continue
			}
			switch fam.Name {
			case "hbold_breaker_state":
				stateVal = se.Value
			case "hbold_breaker_last_transition_timestamp_seconds":
				sinceVal = se.Value
			case "hbold_breaker_open_total":
				trips = se.Value
			}
		}
	}
	if stateVal != float64(Open) {
		t.Fatalf("state gauge = %v, want %v", stateVal, float64(Open))
	}
	if want := float64(ck.Now().UnixNano()) / 1e9; sinceVal != want {
		t.Fatalf("last-transition gauge = %v, want %v", sinceVal, want)
	}
	if trips != 1 {
		t.Fatalf("trip counter = %v, want 1", trips)
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(2, 1)
	if !b.Spend() || !b.Spend() {
		t.Fatal("a full budget must grant its tokens")
	}
	if b.Spend() {
		t.Fatal("an empty budget granted a retry")
	}
	b.Earn()
	if !b.Spend() {
		t.Fatal("a success must refill the bucket")
	}
	for i := 0; i < 10; i++ {
		b.Earn()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("bucket overfilled: %v tokens, cap 2", got)
	}
	var nilB *Budget
	if !nilB.Spend() {
		t.Fatal("nil budget must always grant")
	}
	nilB.Earn()
}

func TestHedgeDelay(t *testing.T) {
	const seed = 100 * time.Millisecond
	h := NewHedgeDelay(10)
	if got := h.Delay(seed); got != seed {
		t.Fatalf("empty tracker delay = %v, want the seed", got)
	}
	// below the sample floor the seed still answers
	for i := 0; i < hedgeMinSamples-1; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Delay(seed); got != seed {
		t.Fatalf("under-sampled delay = %v, want the seed", got)
	}
	h.Observe(time.Millisecond)
	if got := h.Delay(seed); got != time.Millisecond {
		t.Fatalf("uniform samples delay = %v, want 1ms", got)
	}
	// one slow outlier in ten: p90 picks it up
	h2 := NewHedgeDelay(10)
	for i := 0; i < 9; i++ {
		h2.Observe(time.Millisecond)
	}
	h2.Observe(time.Second)
	if got := h2.Delay(0); got != time.Second {
		t.Fatalf("p90 over [9x1ms, 1s] = %v, want 1s", got)
	}
	var nilH *HedgeDelay
	nilH.Observe(time.Second)
	if nilH.Delay(seed) != seed {
		t.Fatal("nil tracker must answer the seed")
	}
}
