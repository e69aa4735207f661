package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func jobByID(s *Scheduler, id int64) (Job, bool) {
	for _, j := range s.Jobs() {
		if j.ID == id {
			return j, true
		}
	}
	return Job{}, false
}

func TestBoundedParallelism(t *testing.T) {
	const workers = 4
	var inflight, peak int32
	release := make(chan struct{})
	s := New(Config{Workers: workers}, func(ctx context.Context, url string) error {
		cur := atomic.AddInt32(&inflight, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
				break
			}
		}
		<-release
		atomic.AddInt32(&inflight, -1)
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.Submit(fmt.Sprintf("http://e%d/sparql", i), Routine)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// the pool saturates at exactly Workers concurrent jobs
	eventually(t, "pool saturation", func() bool { return atomic.LoadInt32(&inflight) == workers })
	if m := s.Metrics(); m.Running != workers {
		t.Fatalf("Running = %d, want %d", m.Running, workers)
	}
	close(release)
	for _, tk := range tickets {
		st, err := tk.Wait(context.Background())
		if st != StateSucceeded || err != nil {
			t.Fatalf("job %d: state %s err %v", tk.ID(), st, err)
		}
	}
	if got := atomic.LoadInt32(&peak); got != workers {
		t.Fatalf("peak parallelism = %d, want %d", got, workers)
	}
	m := s.Metrics()
	if m.Submitted != 8 || m.Succeeded != 8 || m.Failed != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.LatencyCount != 8 || m.LatencyMaxMs <= 0 {
		t.Fatalf("latency metrics = %+v", m)
	}
}

func TestManualPriorityBeatsRoutine(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	s := New(Config{Workers: 1}, func(ctx context.Context, url string) error {
		mu.Lock()
		order = append(order, url)
		mu.Unlock()
		if url == "http://gate/sparql" {
			<-gate
		}
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	// occupy the single worker, then queue a routine refresh before a
	// manual submission: the manual one must dispatch first
	first, _ := s.Submit("http://gate/sparql", Routine)
	eventually(t, "gate job running", func() bool {
		j, ok := jobByID(s, first.ID())
		return ok && j.State == StateRunning
	})
	routine, _ := s.Submit("http://routine/sparql", Routine)
	manual, _ := s.Submit("http://manual/sparql", Manual)
	close(gate)
	for _, tk := range []*Ticket{first, routine, manual} {
		if st, err := tk.Wait(context.Background()); st != StateSucceeded || err != nil {
			t.Fatalf("job %d: state %s err %v", tk.ID(), st, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"http://gate/sparql", "http://manual/sparql", "http://routine/sparql"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestRetryBackoffSequencing(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	var mu sync.Mutex
	var attempts []time.Time
	fails := 2
	s := New(Config{
		Workers: 2,
		Clock:   ck,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Minute, MaxBackoff: 10 * time.Minute},
	}, func(ctx context.Context, url string) error {
		mu.Lock()
		attempts = append(attempts, ck.Now())
		n := len(attempts)
		mu.Unlock()
		if n <= fails {
			return errors.New("transient outage")
		}
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	tk, err := s.Submit("http://flaky/sparql", Routine)
	if err != nil {
		t.Fatal(err)
	}
	// attempt 1 fails immediately; the job parks until now+1m
	eventually(t, "job waiting on first backoff", func() bool {
		j, ok := jobByID(s, tk.ID())
		return ok && j.State == StateWaiting
	})
	j, _ := jobByID(s, tk.ID())
	if got := j.ReadyAt.Sub(attempts[0]); got != time.Minute {
		t.Fatalf("first backoff = %v, want 1m", got)
	}
	// advancing part of the backoff must not dispatch; the later
	// attempt-gap assertions would catch an early dispatch
	ck.Advance(30 * time.Second)
	s.Kick()
	ck.Advance(30 * time.Second)
	s.Kick()
	eventually(t, "second attempt", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(attempts) >= 2
	})
	eventually(t, "job waiting on second backoff", func() bool {
		j, ok := jobByID(s, tk.ID())
		return ok && j.State == StateWaiting
	})
	// backoff doubles: the second retry waits 2m
	ck.Advance(2 * time.Minute)
	s.Kick()
	if st, err := tk.Wait(context.Background()); st != StateSucceeded || err != nil {
		t.Fatalf("state %s err %v", st, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(attempts))
	}
	if gap := attempts[1].Sub(attempts[0]); gap != time.Minute {
		t.Fatalf("gap 1→2 = %v, want 1m", gap)
	}
	if gap := attempts[2].Sub(attempts[1]); gap != 2*time.Minute {
		t.Fatalf("gap 2→3 = %v, want 2m", gap)
	}
	if m := s.Metrics(); m.Retries != 2 || m.Succeeded != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	boom := errors.New("hard down")
	s := New(Config{
		Workers: 1,
		Clock:   ck,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second},
	}, func(ctx context.Context, url string) error { return boom })
	s.Start(context.Background())
	defer s.Stop()
	tk, _ := s.Submit("http://dead/sparql", Routine)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				ck.Advance(time.Second)
				s.Kick()
				time.Sleep(time.Millisecond)
			}
			if j, ok := jobByID(s, tk.ID()); ok && j.State.Terminal() {
				return
			}
		}
	}()
	st, err := tk.Wait(context.Background())
	<-done
	if st != StateFailed || !errors.Is(err, boom) {
		t.Fatalf("state %s err %v", st, err)
	}
	j, _ := jobByID(s, tk.ID())
	if j.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", j.Attempts)
	}
}

func TestRetryableHookStopsRetry(t *testing.T) {
	s := New(Config{
		Workers:   1,
		Retry:     RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond},
		Retryable: func(url string, attempts int) bool { return false },
	}, func(ctx context.Context, url string) error { return errors.New("down") })
	s.Start(context.Background())
	defer s.Stop()
	tk, _ := s.Submit("http://given-up/sparql", Routine)
	st, _ := tk.Wait(context.Background())
	if st != StateFailed {
		t.Fatalf("state = %s", st)
	}
	if j, _ := jobByID(s, tk.ID()); j.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (hook vetoed retry)", j.Attempts)
	}
}

func TestDrainOnCancellation(t *testing.T) {
	release := make(chan struct{})
	var started int32
	s := New(Config{Workers: 2}, func(ctx context.Context, url string) error {
		atomic.AddInt32(&started, 1)
		<-release
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := s.Submit(fmt.Sprintf("http://d%d/sparql", i), Routine)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	eventually(t, "two jobs running", func() bool { return atomic.LoadInt32(&started) == 2 })
	cancel()
	close(release)
	s.Stop()
	// the two in-flight jobs ran to completion; the queued three were
	// discarded as canceled — none left running or queued
	var succeeded, canceled int
	for _, tk := range tickets {
		switch st, err := tk.Wait(context.Background()); st {
		case StateSucceeded:
			succeeded++
		case StateCanceled:
			canceled++
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled job err = %v", err)
			}
		default:
			t.Fatalf("job %d: state %s", tk.ID(), st)
		}
	}
	if succeeded != 2 || canceled != 3 {
		t.Fatalf("succeeded %d canceled %d, want 2 and 3", succeeded, canceled)
	}
	m := s.Metrics()
	if m.Running != 0 || m.Queued != 0 || m.Waiting != 0 {
		t.Fatalf("queues not drained: %+v", m)
	}
	if _, err := s.Submit("http://late/sparql", Routine); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: err = %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after stop: %v", err)
	}
}

func TestRateLimitPerEndpoint(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	s := New(Config{
		Workers: 4,
		Clock:   ck,
		Rate:    RateLimit{PerSecond: 1, Burst: 1},
	}, func(ctx context.Context, url string) error { return nil })
	s.Start(context.Background())
	defer s.Stop()
	hot := "http://hot/sparql"
	// Submit serially: the scheduler dedups active jobs per URL, so the
	// next job for the same endpoint is submitted once the previous one
	// finished (still rate-limited by the token bucket).
	var cold *Ticket
	var hotIDs []int64
	for i := 0; i < 3; i++ {
		tk, err := s.Submit(hot, Routine)
		if err != nil {
			t.Fatal(err)
		}
		hotIDs = append(hotIDs, tk.ID())
		if i == 0 {
			// a different endpoint is not throttled by hot's bucket
			cold, _ = s.Submit("http://cold/sparql", Routine)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if j, ok := jobByID(s, tk.ID()); ok && j.State.Terminal() {
					return
				}
				ck.Advance(250 * time.Millisecond)
				s.Kick()
				time.Sleep(time.Millisecond)
			}
		}()
		if st, err := tk.Wait(context.Background()); st != StateSucceeded || err != nil {
			t.Fatalf("hot job %d: state %s err %v", i, st, err)
		}
		<-done
	}
	if st, err := cold.Wait(context.Background()); st != StateSucceeded || err != nil {
		t.Fatalf("cold job: state %s err %v", st, err)
	}
	// Timing is asserted on StartedAt: the dispatch timestamp taken
	// when the token is consumed (runner-side clock reads race the
	// advancing goroutine and would skew the measurement).
	var hotStarts []time.Time
	for i, id := range hotIDs {
		j, ok := jobByID(s, id)
		if !ok {
			t.Fatalf("hot job %d evicted", i)
		}
		hotStarts = append(hotStarts, j.StartedAt)
	}
	// 1 token/s with burst 1: successive dispatches to the same
	// endpoint are at least a second apart on the simulated clock
	// (minus a float-rounding hair from the token arithmetic)
	for i := 1; i < len(hotStarts); i++ {
		if gap := hotStarts[i].Sub(hotStarts[i-1]); gap < time.Second-time.Millisecond {
			t.Fatalf("dispatch gap %d = %v, want >= 1s", i, gap)
		}
	}
	// the cold endpoint ran on its own bucket, before hot's last job
	coldJob, ok := jobByID(s, cold.ID())
	if !ok {
		t.Fatal("cold job evicted")
	}
	if coldJob.StartedAt.After(hotStarts[2]) {
		t.Fatalf("cold dispatch %v waited for hot bucket (last hot %v)", coldJob.StartedAt, hotStarts[2])
	}
	if m := s.Metrics(); m.RateDeferred == 0 {
		t.Fatalf("metrics = %+v, want rate deferrals", m)
	}
}

func TestSubmitDedupsActiveURL(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1}, func(ctx context.Context, url string) error {
		if url == "http://gate/sparql" {
			<-gate
		}
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	blocker, _ := s.Submit("http://gate/sparql", Routine)
	eventually(t, "gate job running", func() bool {
		j, ok := jobByID(s, blocker.ID())
		return ok && j.State == StateRunning
	})
	a, _ := s.Submit("http://dup/sparql", Routine)
	b, _ := s.Submit("http://dup/sparql", Manual)
	if a.ID() != b.ID() {
		t.Fatalf("dup submit created a second job: %d vs %d", a.ID(), b.ID())
	}
	// the duplicate submission upgraded the queued job's priority
	if j, _ := jobByID(s, a.ID()); j.Priority != "manual" {
		t.Fatalf("priority = %s, want manual", j.Priority)
	}
	if m := s.Metrics(); m.Deduped != 1 || m.Submitted != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	close(gate)
	if st, _ := a.Wait(context.Background()); st != StateSucceeded {
		t.Fatalf("state = %s", st)
	}
	// once terminal, the URL can be submitted again as a fresh job
	c, err := s.Submit("http://dup/sparql", Routine)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == a.ID() {
		t.Fatal("terminal job not released from dedup index")
	}
	if st, _ := c.Wait(context.Background()); st != StateSucceeded {
		t.Fatalf("resubmit state = %s", st)
	}
}

// TestOnJobFailedFiresOncePerJob: the hook runs for the terminal
// failure only — not per attempt, not for successes.
func TestOnJobFailedFiresOncePerJob(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	var calls int32
	s := New(Config{
		Workers:     2,
		Clock:       ck,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second},
		OnJobFailed: func(url string, err error) { atomic.AddInt32(&calls, 1) },
	}, func(ctx context.Context, url string) error {
		if url == "http://ok/sparql" {
			return nil
		}
		return errors.New("down")
	})
	s.Start(context.Background())
	defer s.Stop()
	okTk, _ := s.Submit("http://ok/sparql", Routine)
	badTk, _ := s.Submit("http://bad/sparql", Routine)
	stopAdvance := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopAdvance:
				return
			default:
				ck.Advance(2 * time.Second)
				s.Kick()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	if st, _ := okTk.Wait(context.Background()); st != StateSucceeded {
		t.Fatalf("ok state = %s", st)
	}
	st, _ := badTk.Wait(context.Background())
	close(stopAdvance)
	if st != StateFailed {
		t.Fatalf("bad state = %s", st)
	}
	if j, _ := jobByID(s, badTk.ID()); j.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", j.Attempts)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("OnJobFailed calls = %d, want 1 (three attempts, one terminal failure)", got)
	}
}

// TestSimClockRetryWithoutKick: a waiting job under a simulated clock
// must still dispatch once the clock is advanced, even if nobody calls
// Kick — the dispatcher polls rather than sleeping a simulated
// duration in wall time.
func TestSimClockRetryWithoutKick(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	var attempts int32
	s := New(Config{
		Workers: 1,
		Clock:   ck,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Hour},
	}, func(ctx context.Context, url string) error {
		if atomic.AddInt32(&attempts, 1) == 1 {
			return errors.New("transient")
		}
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	tk, _ := s.Submit("http://poll/sparql", Routine)
	eventually(t, "job parked", func() bool {
		j, ok := jobByID(s, tk.ID())
		return ok && j.State == StateWaiting
	})
	ck.Advance(time.Hour) // no Kick
	if st, err := tk.Wait(context.Background()); st != StateSucceeded || err != nil {
		t.Fatalf("state %s err %v", st, err)
	}
}

func TestRunnerPanicFailsJob(t *testing.T) {
	s := New(Config{Workers: 1}, func(ctx context.Context, url string) error {
		panic("extraction exploded")
	})
	s.Start(context.Background())
	defer s.Stop()
	tk, _ := s.Submit("http://boom/sparql", Routine)
	st, err := tk.Wait(context.Background())
	if st != StateFailed || err == nil {
		t.Fatalf("state %s err %v", st, err)
	}
}

func TestDrainWaitsForAll(t *testing.T) {
	var done int32
	s := New(Config{Workers: 3}, func(ctx context.Context, url string) error {
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&done, 1)
		return nil
	})
	s.Start(context.Background())
	defer s.Stop()
	for i := 0; i < 9; i++ {
		if _, err := s.Submit(fmt.Sprintf("http://w%d/sparql", i), Routine); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&done) != 9 {
		t.Fatalf("done = %d, want 9", done)
	}
	if m := s.Metrics(); m.Succeeded != 9 || m.Queued != 0 || m.Running != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDoneRingBounded(t *testing.T) {
	s := New(Config{Workers: 2, KeepDone: 5}, func(ctx context.Context, url string) error { return nil })
	s.Start(context.Background())
	defer s.Stop()
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(fmt.Sprintf("http://r%d/sparql", i), Routine); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs := s.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("retained jobs = %d, want 5", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateSucceeded {
			t.Fatalf("retained job %d in state %s", j.ID, j.State)
		}
	}
	// the retained five are the most recent completions
	if jobs[len(jobs)-1].ID != 20 {
		t.Fatalf("newest retained id = %d, want 20", jobs[len(jobs)-1].ID)
	}
}
