package endpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/resilience"
	"repro/internal/sparql"
)

// resultsMIME is the SPARQL 1.1 JSON results media type, sent as Accept
// on every request and produced by the protocol server.
const resultsMIME = "application/sparql-results+json"

// Default retry backoff bounds; see HTTPClient.BaseBackoff.
const (
	defaultBaseBackoff = 250 * time.Millisecond
	defaultMaxBackoff  = 5 * time.Second
)

// connectPatience bounds connection setup and time-to-first-byte against
// slow public endpoints. It deliberately does NOT bound the body read: a
// stream lives as long as the consumer keeps pulling rows, limited only
// by the caller's context. (http.Client.Timeout would cover the whole
// body and kill any stream outliving it, however healthy.)
const connectPatience = 30 * time.Second

// defaultHTTPClient is the shared client used when HTTPClient.HTTP is
// nil: dial and response-header bounded by connectPatience, body
// unbounded.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           (&net.Dialer{Timeout: connectPatience, KeepAlive: 30 * time.Second}).DialContext,
		ResponseHeaderTimeout: connectPatience,
		MaxIdleConnsPerHost:   8,
		IdleConnTimeout:       90 * time.Second,
	},
}

// HTTPClient queries a SPARQL endpoint over the SPARQL protocol. It is
// used against the in-process protocol servers in tests and examples, and
// would work unchanged against a live endpoint. It implements both
// Streamer (incremental rows decoded token-wise off the response body, so
// memory stays O(row) however large the result) and Client (the same
// stream, collected).
type HTTPClient struct {
	// URL is the endpoint URL.
	URL string
	// HTTP is the underlying client; nil means a shared client that
	// bounds connection setup and time-to-first-byte at 30 s (the
	// extraction pipeline's patience for slow public endpoints) while
	// leaving the body read unbounded so long streams survive — bound
	// those with the context. Setting an http.Client with a Timeout
	// here caps every stream's total lifetime at that Timeout.
	HTTP *http.Client
	// Retries is the number of extra attempts on transient failure.
	Retries int
	// BaseBackoff is the pause before the first retry; each further
	// retry doubles it (with ±50% jitter so a fleet of clients does not
	// re-hit a recovering endpoint in lockstep), capped at MaxBackoff.
	// Zero values get defaults of 250ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Metrics, when set, counts request attempts, transient failures,
	// retries and backoff sleep per endpoint URL on the registry.
	Metrics *obs.Registry
	// Budget, when set, is the fleet-wide retry budget every retry spends
	// from and every success earns into. Shared across a process's
	// clients it caps total retry amplification during an outage; nil
	// means unbudgeted (every configured retry is taken).
	Budget *resilience.Budget
}

// obsCount bumps a per-endpoint counter family by v when metrics are on.
func (c *HTTPClient) obsCount(name, help string, v float64) {
	if c.Metrics == nil {
		return
	}
	c.Metrics.CounterVec(name, help, "endpoint").With(c.URL).Add(v)
}

// NewHTTPClient returns a client for the endpoint at rawURL.
func NewHTTPClient(rawURL string) *HTTPClient {
	return &HTTPClient{URL: rawURL}
}

// CloseIdleConnections drops the keep-alive connections held by the
// shared default transport (clients with a custom HTTP field manage
// their own). Daemons call it on shutdown; tests that count goroutines
// call it so idle connection loops don't read as leaks.
func CloseIdleConnections() {
	defaultHTTPClient.CloseIdleConnections()
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// backoff sleeps before retry attempt (1-based), doubling from
// BaseBackoff up to MaxBackoff with ±50% jitter. A positive hint — the
// server's Retry-After — overrides the computed pause (capped at
// MaxBackoff, no jitter: the server named an exact recovery time, and
// spreading a fleet across it would land half the fleet early). It
// returns early with the context's error if ctx is done first.
func (c *HTTPClient) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	base := c.BaseBackoff
	if base <= 0 {
		base = defaultBaseBackoff
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	// jitter in [d/2, 3d/2): desynchronizes the retry storms a shared
	// outage would otherwise cause
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if hint > 0 {
		if hint > max {
			hint = max
		}
		d = hint
		c.obsCount("hbold_endpoint_retry_after_total", "Backoffs overridden by a server Retry-After header.", 1)
	}
	c.obsCount("hbold_endpoint_backoff_seconds_total", "Time spent sleeping in retry backoff.", d.Seconds())
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// post issues one SPARQL protocol request. The caller owns the response
// body on success.
func (c *HTTPClient) post(ctx context.Context, query string) (*http.Response, error) {
	form := url.Values{"query": {query}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL,
		strings.NewReader(form.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", resultsMIME)
	return c.httpClient().Do(req)
}

// permanent reports whether retrying is pointless because the caller's
// own context is done. Only the caller's context counts: an http-level
// timeout also surfaces as a deadline error, but that one is transient —
// matching on the error value would silently disable Retries for exactly
// the flaky-endpoint failures the retry loop exists for.
func permanent(ctx context.Context) bool {
	return ctx.Err() != nil
}

// retryAfterHint parses a Retry-After response header — delay-seconds
// or an HTTP-date — into a wait duration; 0 means no usable hint. The
// caller caps it at MaxBackoff, so a pathological "Retry-After: 86400"
// cannot park a query for a day.
func retryAfterHint(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retrying runs one attempt under the client's retry policy: transient
// failures (as reported by the attempt itself) are retried up to
// c.Retries times with jittered exponential backoff — or the server's
// Retry-After when it sent one — stopping early when the caller's
// context dies or the shared retry budget is exhausted. Query and
// Stream share this loop and the one attempt behind it (streamOnce), so
// the retry policy cannot drift between the two paths: a failure is
// worth another attempt as long as nothing has reached the caller.
func retrying[T any](ctx context.Context, c *HTTPClient, attempt func(context.Context) (T, bool, time.Duration, error)) (T, error) {
	var zero T
	var lastErr error
	var hint time.Duration
	for n := 0; ; n++ {
		if n > 0 {
			if !c.Budget.Spend() {
				c.obsCount("hbold_endpoint_retry_budget_exhausted_total", "Retries denied because the fleet-wide retry budget was empty.", 1)
				return zero, lastErr
			}
			c.obsCount("hbold_endpoint_retries_total", "Request attempts re-issued after a transient failure.", 1)
			if err := c.backoff(ctx, n, hint); err != nil {
				return zero, err
			}
		}
		c.obsCount("hbold_endpoint_attempts_total", "SPARQL protocol request attempts.", 1)
		v, retry, after, err := attempt(ctx)
		if err == nil {
			c.Budget.Earn()
			return v, nil
		}
		c.obsCount("hbold_endpoint_errors_total", "Request attempts that failed.", 1)
		lastErr, hint = err, after
		if !retry || permanent(ctx) || n >= c.Retries {
			return zero, lastErr
		}
	}
}

// maxCollectBytes caps the response body Query will collect.
const maxCollectBytes = 64 << 20

// Query implements Client: each attempt opens the same stream Stream
// does and collects it, so there is one decoder and one classification
// of what the endpoint sent. Nothing reaches the caller before the last
// row, so a body that breaks half-way is an attempt failure like a bad
// head (Stream, whose rows are already out by then, can only report
// it); a body over maxCollectBytes is not — it will not shrink. A caller
// context without a deadline gets a per-attempt ceiling of
// connectPatience: a collecting query has nothing to show until the
// whole body arrived, so an unbounded read is just a hang.
func (c *HTTPClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	return retrying(ctx, c, func(ctx context.Context) (*sparql.Result, bool, time.Duration, error) {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, connectPatience)
			defer cancel()
		}
		rs, retry, hint, err := c.streamOnce(ctx, query, maxCollectBytes)
		if err != nil {
			return nil, retry, hint, err
		}
		res, err := rs.Collect()
		if err != nil {
			var tooBig *http.MaxBytesError
			return nil, !errors.As(err, &tooBig), 0, err
		}
		return res, false, 0, nil
	})
}

// statusErr classifies a non-200 protocol response: whether it is worth
// retrying, any Retry-After hint it carried, and the error to surface.
// 429 (throttled) and 5xx are transient; other 4xx won't get better on
// retry. 503 additionally wraps ErrUnavailable, so a federation with
// SkipUnavailable routes around a flapping member instead of failing
// the whole query on it.
func (c *HTTPClient) statusErr(resp *http.Response, body string) (retry bool, hint time.Duration, err error) {
	err = fmt.Errorf("endpoint: %s returned %d: %s", c.URL, resp.StatusCode, truncate(body, 200))
	if resp.StatusCode == http.StatusServiceUnavailable {
		err = fmt.Errorf("%w: %s returned 503: %s", ErrUnavailable, c.URL, truncate(body, 200))
	}
	hint = retryAfterHint(resp)
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		return false, hint, err
	}
	return true, hint, err
}

// Stream implements Streamer: it opens the protocol request (retrying
// transient failures like Query does, since no row has been delivered
// yet) and then decodes bindings incrementally off the response body,
// each into the one row the stream yields.
// Once rows are flowing, a failure — truncated body, malformed JSON, a
// canceled context — surfaces through the stream's Err, never as a
// silent end of results.
func (c *HTTPClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	return retrying(ctx, c, func(ctx context.Context) (*sparql.RowSeq, bool, time.Duration, error) {
		return c.streamOnce(ctx, query, 0)
	})
}

// streamOnce runs a single attempt: the request, the status check and
// the head of the results document; retry reports whether a failure is
// worth another attempt. maxBody > 0 caps the body read.
func (c *HTTPClient) streamOnce(ctx context.Context, query string, maxBody int64) (rs *sparql.RowSeq, retry bool, hint time.Duration, err error) {
	resp, err := c.post(ctx, query)
	if err != nil {
		return nil, true, 0, err
	}
	if maxBody > 0 {
		resp.Body = http.MaxBytesReader(nil, resp.Body, maxBody)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		resp.Body.Close()
		retry, hint, err := c.statusErr(resp, string(body))
		return nil, retry, hint, err
	}
	rr, err := sparql.NewJSONRowReader(resp.Body)
	if err != nil {
		resp.Body.Close()
		return nil, true, 0, fmt.Errorf("endpoint: bad results document from %s: %w", c.URL, err)
	}
	if val, ok := rr.Ask(); ok {
		resp.Body.Close()
		out := sparql.ResultSeq(&sparql.Result{Ask: true, Boolean: val})
		return out, false, 0, nil
	}
	var streamErr error
	row := make([]rdf.Term, len(rr.Vars()))
	seq := func(yield func([]rdf.Term) bool) {
		defer resp.Body.Close()
		for {
			if err := ctx.Err(); err != nil {
				streamErr = err
				return
			}
			err := rr.Next(row)
			if err == io.EOF {
				return
			}
			if err != nil {
				streamErr = fmt.Errorf("endpoint: stream from %s: %w", c.URL, err)
				return
			}
			if !yield(row) {
				return
			}
		}
	}
	out := sparql.NewRowSeq(rr.Vars(), seq, &streamErr)
	// if the consumer closes without ever ranging, the producer never
	// ran and its deferred close never fires
	out.OnClose(func() { resp.Body.Close() })
	return out, false, 0, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
