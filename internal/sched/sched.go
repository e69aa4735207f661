// Package sched is H-BOLD's extraction scheduler: a bounded worker pool
// over a priority job queue. The §3.1 server layer re-extracts indexes
// for every registered endpoint; walking them one at a time on the
// caller's goroutine caps throughput at one endpoint per extraction
// latency. The scheduler instead dispatches jobs to a configurable
// number of workers, keeps manual §3.4 submissions ahead of routine
// refreshes, retries failed extractions with per-endpoint exponential
// backoff (bounded by the registry's give-up policy through a pluggable
// hook), rate-limits dispatches per endpoint URL with a token bucket,
// and exposes live job and metrics snapshots for the observability API.
//
// Time is read through internal/clock, so retry and rate-limit
// sequencing can be driven by a simulated calendar in tests; Kick wakes
// the dispatcher after a manual clock advance.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Priority orders jobs in the ready queue. Higher runs first.
type Priority int

// Job priorities: manual §3.4 submissions jump ahead of routine §3.1
// refreshes, because a user is waiting on the notification e-mail.
const (
	Routine Priority = 0
	Manual  Priority = 1
)

// String returns the priority name used in job snapshots.
func (p Priority) String() string {
	if p == Manual {
		return "manual"
	}
	return "routine"
}

// State is a job's lifecycle state.
type State string

// Job states. Queued and Waiting are pending (Waiting means the job is
// parked until a backoff or rate-limit deadline); Succeeded, Failed and
// Canceled are terminal.
const (
	StateQueued    State = "queued"
	StateWaiting   State = "waiting"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Errors returned by the scheduler.
var (
	// ErrStopped is returned by Submit after the scheduler has stopped.
	ErrStopped = errors.New("sched: scheduler stopped")
	// ErrCanceled is the terminal error of jobs discarded by a shutdown
	// before they ran to completion.
	ErrCanceled = errors.New("sched: job canceled")
)

// Runner executes one extraction job. The context is the scheduler's
// run context: it is canceled on Stop, so runners that check it can
// abort early (a runner that ignores it simply runs to completion and
// Stop waits for it).
type Runner func(ctx context.Context, url string) error

// RetryPolicy bounds in-run retries of a failed job. Across runs the
// registry's §3.1 policy (daily retry day) remains authoritative; this
// policy covers transient failures within one scheduling cycle.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job (minimum 1,
	// which disables in-run retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it. Default 1s.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. Default 5m.
	MaxBackoff time.Duration
}

// RateLimit is a per-endpoint-URL token bucket on job dispatch, so a
// refresh storm cannot hammer one public endpoint.
type RateLimit struct {
	// PerSecond is the token refill rate; 0 disables rate limiting.
	PerSecond float64
	// Burst is the bucket capacity (default 1 when PerSecond > 0).
	Burst int
}

// Config parameterizes a Scheduler.
type Config struct {
	// Workers bounds parallelism (default 4).
	Workers int
	// Retry is the in-run retry policy.
	Retry RetryPolicy
	// Rate is the per-endpoint dispatch rate limit.
	Rate RateLimit
	// Clock supplies time; nil means the wall clock.
	Clock clock.Clock
	// Metrics is the registry the scheduler's counters, gauges and the
	// attempt-latency histogram live on; nil means a private registry, so
	// schedulers created without one (tests, standalone use) stay
	// isolated. core passes the process registry here so /metrics covers
	// the scheduler.
	Metrics *obs.Registry
	// KeepDone is how many completed jobs the observability snapshot
	// retains (default 128).
	KeepDone int
	// Retryable, when set, is consulted before an in-run retry is
	// scheduled; returning false fails the job immediately. core wires
	// this to the registry's give-up policy.
	Retryable func(url string, attempts int) bool
	// OnJobFailed, when set, runs once per job that exhausts its
	// retries, immediately before the job is marked failed — state
	// readers woken by the terminal transition are guaranteed to
	// observe its effects. It does not fire for intermediate attempts
	// or canceled jobs. It is called with the scheduler's internal
	// lock held, so it must not call back into the Scheduler. core
	// wires this to the registry failure record, keeping one record
	// per job however many in-run attempts it took.
	OnJobFailed func(url string, err error)
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 1
	}
	if c.Retry.BaseBackoff <= 0 {
		c.Retry.BaseBackoff = time.Second
	}
	if c.Retry.MaxBackoff <= 0 {
		c.Retry.MaxBackoff = 5 * time.Minute
	}
	if c.Rate.PerSecond > 0 && c.Rate.Burst <= 0 {
		c.Rate.Burst = 1
	}
	if c.KeepDone <= 0 {
		c.KeepDone = 128
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// job is the internal mutable record; Job is its public snapshot.
type job struct {
	id       int64
	url      string
	pri      Priority
	state    State
	attempts int
	seq      int64 // FIFO tiebreak within a priority class
	heapIdx  int

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	readyAt     time.Time // next dispatch time while waiting

	err error
}

// Job is an observability snapshot of one job.
type Job struct {
	ID          int64     `json:"id"`
	URL         string    `json:"url"`
	Priority    string    `json:"priority"`
	State       State     `json:"state"`
	Attempts    int       `json:"attempts"`
	SubmittedAt time.Time `json:"submittedAt"`
	StartedAt   time.Time `json:"startedAt"`
	FinishedAt  time.Time `json:"finishedAt"`
	ReadyAt     time.Time `json:"readyAt"`
	Error       string    `json:"error,omitempty"`
}

// Ticket is a handle on a submitted job; Wait blocks until the job
// reaches a terminal state.
type Ticket struct {
	s *Scheduler
	j *job
}

// ID returns the job id.
func (t *Ticket) ID() int64 { return t.j.id }

// Wait blocks until the job is terminal or ctx is done. It returns the
// job's state and, for failed or canceled jobs, its error; when ctx
// expires first it returns the current (non-terminal) state and the
// context error.
func (t *Ticket) Wait(ctx context.Context) (State, error) {
	err := t.s.waitCond(ctx, func() bool { return t.j.state.Terminal() })
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if err != nil {
		return t.j.state, err
	}
	return t.j.state, t.j.err
}

// Scheduler dispatches extraction jobs to a bounded worker pool. Create
// with New, call Start once, Submit jobs, and Stop to shut down.
type Scheduler struct {
	cfg Config
	run Runner
	ck  clock.Clock

	mu      sync.Mutex
	cond    *sync.Cond
	ready   readyHeap
	waiting waitHeap
	active  map[int64]*job  // every non-terminal job
	byURL   map[string]*job // active job per URL (dedup)
	done    []*job          // most recent terminal jobs, oldest first
	buckets map[string]*bucket
	nextID  int64
	nextSeq int64
	pending int // jobs not yet terminal
	running int
	stopped bool
	started bool
	m       metrics

	wake   chan struct{}
	slots  chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a scheduler that executes jobs with run. Zero-value Config
// fields get production defaults.
func New(cfg Config, run Runner) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:     cfg,
		run:     run,
		ck:      cfg.Clock,
		active:  make(map[int64]*job),
		byURL:   make(map[string]*job),
		buckets: make(map[string]*bucket),
		wake:    make(chan struct{}, 1),
		slots:   make(chan struct{}, cfg.Workers),
	}
	s.m = newMetrics(cfg.Metrics)
	s.registerGauges(cfg.Metrics)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the dispatcher. Jobs submitted earlier begin running.
// Canceling ctx has the same effect as Stop. Start is idempotent.
func (s *Scheduler) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.dispatch()
}

// Stop cancels the run context, discards pending jobs as canceled,
// waits for in-flight jobs to finish, and rejects further submissions.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.wg.Wait()
}

// Submit enqueues an extraction job for url. If the URL already has a
// pending or running job, no new job is created: the existing job's
// ticket is returned, upgraded to the higher of the two priorities.
func (s *Scheduler) Submit(url string, pri Priority) (*Ticket, error) {
	if url == "" {
		return nil, fmt.Errorf("sched: empty job URL")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrStopped
	}
	if j := s.byURL[url]; j != nil {
		if pri > j.pri {
			j.pri = pri
			if j.state == StateQueued {
				heap.Fix(&s.ready, j.heapIdx)
			}
		}
		s.m.deduped.Inc()
		return &Ticket{s: s, j: j}, nil
	}
	s.nextID++
	j := &job{
		id:          s.nextID,
		url:         url,
		pri:         pri,
		state:       StateQueued,
		seq:         s.nextSeq,
		submittedAt: s.ck.Now(),
	}
	s.nextSeq++
	heap.Push(&s.ready, j)
	s.active[j.id] = j
	s.byURL[url] = j
	s.pending++
	s.m.submitted.Inc()
	s.kick()
	return &Ticket{s: s, j: j}, nil
}

// Kick wakes the dispatcher so it re-evaluates backoff and rate-limit
// deadlines against the current clock. Tests driving a simulated clock
// call it after advancing time; with the wall clock it is never needed.
func (s *Scheduler) Kick() { s.kick() }

func (s *Scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Drain blocks until no pending or running jobs remain, or ctx is done.
func (s *Scheduler) Drain(ctx context.Context) error {
	return s.waitCond(ctx, func() bool { return s.pending == 0 })
}

// waitCond blocks until done (evaluated under the scheduler mutex)
// holds or ctx expires. A watcher goroutine turns ctx cancellation
// into a cond broadcast so the wait wakes up.
func (s *Scheduler) waitCond(ctx context.Context, done func() bool) error {
	if d := ctx.Done(); d != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-d:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}

// dispatch is the single goroutine that owns queue ordering: it
// promotes waiting jobs whose deadline has passed, parks rate-limited
// jobs, and hands ready jobs to worker goroutines bounded by the slot
// semaphore. Acquiring the slot before popping the queue keeps priority
// honest: the highest-priority job at dispatch time runs next, not the
// highest-priority job at the time a worker became busy.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		now := s.ck.Now()
		s.promoteLocked(now)
		s.parkRateLimitedLocked(now)
		hasReady := s.ready.Len() > 0
		delay := time.Duration(-1)
		if !hasReady && s.waiting.Len() > 0 {
			delay = s.waiting[0].readyAt.Sub(now)
			if delay < time.Millisecond {
				delay = time.Millisecond
			}
			if _, real := s.ck.(clock.Real); !real {
				// a simulated clock's durations mean nothing in wall
				// time: poll at a short real interval so a test that
				// advances the clock without calling Kick still makes
				// progress instead of sleeping a simulated backoff
				delay = time.Millisecond
			}
		}
		s.mu.Unlock()

		if s.ctx.Err() != nil {
			s.shutdown()
			return
		}

		if hasReady {
			select {
			case s.slots <- struct{}{}:
			case <-s.ctx.Done():
				s.shutdown()
				return
			}
			if j := s.takeReady(); j != nil {
				s.wg.Add(1)
				go s.runJob(j)
			} else {
				<-s.slots
			}
			continue
		}

		var timerC <-chan time.Time
		var timer *time.Timer
		if delay >= 0 {
			timer = time.NewTimer(delay)
			timerC = timer.C
		}
		select {
		case <-s.wake:
		case <-timerC:
		case <-s.ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			s.shutdown()
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// takeReady pops the best dispatchable job and marks it running,
// consuming its rate-limit token. It returns nil when the queue turned
// out empty (or fully rate-limited) by the time the slot was acquired.
func (s *Scheduler) takeReady() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.ck.Now()
	s.promoteLocked(now)
	s.parkRateLimitedLocked(now)
	if s.ready.Len() == 0 {
		return nil
	}
	j := heap.Pop(&s.ready).(*job)
	s.takeToken(j.url, now)
	j.state = StateRunning
	j.startedAt = now
	j.attempts++
	s.running++
	return j
}

// runJob executes one attempt and applies the retry policy.
func (s *Scheduler) runJob(j *job) {
	defer s.wg.Done()
	defer func() {
		<-s.slots
		s.kick()
	}()
	err := s.safeRun(j.url)
	retry := false
	if err != nil {
		s.mu.Lock()
		attempts, max, stopped := j.attempts, s.cfg.Retry.MaxAttempts, s.stopped
		s.mu.Unlock()
		retry = attempts < max && !stopped
		if retry && s.cfg.Retryable != nil {
			// the hook may take other locks (the registry's); call it
			// outside ours
			retry = s.cfg.Retryable(j.url, attempts)
		}
	}
	now := s.ck.Now()
	s.mu.Lock()
	s.running--
	s.m.observeLatency(now.Sub(j.startedAt))
	switch {
	case err == nil:
		s.finishLocked(j, StateSucceeded, nil, now)
	case retry && !s.stopped:
		j.state = StateWaiting
		j.readyAt = now.Add(s.backoff(j.attempts))
		j.err = err
		heap.Push(&s.waiting, j)
		s.m.retries.Inc()
	default:
		// the failure hook runs under the lock, atomically with the
		// terminal transition: anyone woken by the broadcast observes
		// its effects, including when Stop raced the retry decision
		if s.cfg.OnJobFailed != nil {
			s.cfg.OnJobFailed(j.url, err)
		}
		s.finishLocked(j, StateFailed, err, now)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Scheduler) safeRun(url string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: runner panic: %v", r)
		}
	}()
	return s.run(s.ctx, url)
}

// backoff returns the delay before attempt attempts+1: Base doubled per
// prior retry, capped at MaxBackoff.
func (s *Scheduler) backoff(attempts int) time.Duration {
	d := s.cfg.Retry.BaseBackoff
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= s.cfg.Retry.MaxBackoff {
			return s.cfg.Retry.MaxBackoff
		}
	}
	if d > s.cfg.Retry.MaxBackoff {
		d = s.cfg.Retry.MaxBackoff
	}
	return d
}

// promoteLocked moves waiting jobs whose deadline has passed back into
// the ready queue.
func (s *Scheduler) promoteLocked(now time.Time) {
	for s.waiting.Len() > 0 && !s.waiting[0].readyAt.After(now) {
		j := heap.Pop(&s.waiting).(*job)
		j.state = StateQueued
		j.seq = s.nextSeq
		s.nextSeq++
		heap.Push(&s.ready, j)
	}
}

// parkRateLimitedLocked parks ready head jobs whose endpoint bucket is
// empty until their token refills, so a lower-priority job for a
// different endpoint can dispatch instead.
func (s *Scheduler) parkRateLimitedLocked(now time.Time) {
	for s.ready.Len() > 0 {
		j := s.ready[0]
		wait := s.tokenWait(j.url, now)
		if wait <= 0 {
			return
		}
		heap.Pop(&s.ready)
		j.state = StateWaiting
		j.readyAt = now.Add(wait)
		heap.Push(&s.waiting, j)
		s.m.rateDeferred.Inc()
	}
}

// finishLocked records a terminal transition and retains the job in the
// bounded done ring for observability.
func (s *Scheduler) finishLocked(j *job, st State, err error, now time.Time) {
	j.state = st
	j.err = err
	j.finishedAt = now
	s.pending--
	delete(s.active, j.id)
	if s.byURL[j.url] == j {
		delete(s.byURL, j.url)
	}
	switch st {
	case StateSucceeded:
		s.m.succeeded.Inc()
	case StateFailed:
		s.m.failed.Inc()
	case StateCanceled:
		s.m.canceled.Inc()
	}
	if len(s.done) >= s.cfg.KeepDone {
		copy(s.done, s.done[1:])
		s.done = s.done[:s.cfg.KeepDone-1]
	}
	s.done = append(s.done, j)
	s.cond.Broadcast()
}

// shutdown cancels every job that has not started running.
func (s *Scheduler) shutdown() {
	now := s.ck.Now()
	s.mu.Lock()
	s.stopped = true
	for s.ready.Len() > 0 {
		s.finishLocked(heap.Pop(&s.ready).(*job), StateCanceled, ErrCanceled, now)
	}
	for s.waiting.Len() > 0 {
		s.finishLocked(heap.Pop(&s.waiting).(*job), StateCanceled, ErrCanceled, now)
	}
	s.mu.Unlock()
}

// Jobs returns a snapshot of every pending and running job plus the
// most recent completed ones, sorted by job id.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.active)+len(s.done))
	for _, j := range s.active {
		out = append(out, snapshot(j))
	}
	for _, j := range s.done {
		out = append(out, snapshot(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func snapshot(j *job) Job {
	out := Job{
		ID:          j.id,
		URL:         j.url,
		Priority:    j.pri.String(),
		State:       j.state,
		Attempts:    j.attempts,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		ReadyAt:     j.readyAt,
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	return out
}

// --- queue orderings ---

// readyHeap orders by priority (higher first), then submission order.
type readyHeap []*job

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h readyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *readyHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.heapIdx = -1
	return j
}

// waitHeap orders by deadline, then submission order.
type waitHeap []*job

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if !h[i].readyAt.Equal(h[j].readyAt) {
		return h[i].readyAt.Before(h[j].readyAt)
	}
	return h[i].seq < h[j].seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *waitHeap) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *waitHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	j.heapIdx = -1
	return j
}
