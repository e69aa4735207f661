package server

// Tests for the versioned read-path cache: ETag/If-None-Match
// revalidation, generation bumps on refresh, and singleflight collapse
// of concurrent misses.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/synth"
)

// cacheTestTool is testServer's sibling that also exposes the tool, so
// tests can inspect the generation counter and cache statistics.
func cacheTestTool(t *testing.T) (*core.HBOLD, *httptest.Server) {
	t.Helper()
	tool := core.New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	tool.Registry.Add(registry.Entry{URL: dsURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
	tool.Connect(dsURL, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(dsURL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tool.Close)
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	return tool, srv
}

func getWithETag(t *testing.T, u, etag string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestETagMatches(t *testing.T) {
	etag := `"http://x/sparql@3"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{etag, true},
		{"*", true},
		{"W/" + etag, true},
		{`"other", ` + etag, true},
		{`"http://x/sparql@2"`, false},
		{`"other"`, false},
	} {
		if got := etagMatches(tc.header, etag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
	// dataset URLs may legally contain commas; the tag must not be
	// split apart at them
	etag = `"http://x/sparql?graphs=a,b@5"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{etag, true},
		{`"first", ` + etag, true},
		{etag + `, "second"`, true},
		{`"http://x/sparql?graphs=a"`, false},
		{`b@5"`, false},
	} {
		if got := etagMatches(tc.header, etag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestConditionalGetReturns304(t *testing.T) {
	tool, srv := cacheTestTool(t)
	u := srv.URL + "/view/treemap?dataset=" + url.QueryEscape(dsURL)

	code, body, hdr := get(t, u)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<svg") {
		t.Fatal("no SVG in warm response")
	}
	etag := hdr.Get("ETag")
	if want := fmt.Sprintf("%q", dsURL+"@1"); etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}
	if cc := hdr.Get("Cache-Control"); !strings.Contains(cc, "must-revalidate") {
		t.Fatalf("Cache-Control = %q", cc)
	}

	// a hot-generation revalidation answers 304 from the generation
	// counter alone: no cache lookup, no layout recompute
	before := tool.Cache.Stats()
	resp := getWithETag(t, u, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	after := tool.Cache.Stats()
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("304 touched the cache: before %+v, after %+v", before, after)
	}
}

func TestUnknownDatasetHasNoETag(t *testing.T) {
	_, srv := cacheTestTool(t)
	code, _, hdr := get(t, srv.URL+"/api/summary?dataset=http://nobody/sparql")
	if code != http.StatusNotFound {
		t.Fatalf("status = %d", code)
	}
	if etag := hdr.Get("ETag"); etag != "" {
		t.Fatalf("unexpected ETag %q on unindexed dataset", etag)
	}
}

// TestRefreshBumpsGeneration drives a refresh through the scheduler's
// completion path and checks that the generation advances, the old
// validator stops matching, the next read recomputes, and the previous
// generation's snapshots are eagerly invalidated.
func TestRefreshBumpsGeneration(t *testing.T) {
	tool, srv := cacheTestTool(t)
	u := srv.URL + "/api/cluster?dataset=" + url.QueryEscape(dsURL)

	_, _, hdr := get(t, u)
	etag1 := hdr.Get("ETag")
	if want := fmt.Sprintf("%q", dsURL+"@1"); etag1 != want {
		t.Fatalf("ETag = %q, want %q", etag1, want)
	}

	tk, err := tool.Scheduler().Submit(dsURL, sched.Manual)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := tk.Wait(context.Background()); st != sched.StateSucceeded || err != nil {
		t.Fatalf("refresh job = %s, %v", st, err)
	}
	if gen := tool.Generation(dsURL); gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	if inv := tool.Cache.Stats().Invalidations; inv == 0 {
		t.Fatal("refresh did not invalidate generation-1 snapshots")
	}

	// the stale validator no longer matches: full response, new ETag,
	// recomputed body (a cache miss at the new generation)
	before := tool.Cache.Stats().Misses
	resp := getWithETag(t, u, etag1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refresh status = %d, want 200", resp.StatusCode)
	}
	if got, want := resp.Header.Get("ETag"), fmt.Sprintf("%q", dsURL+"@2"); got != want {
		t.Fatalf("post-refresh ETag = %q, want %q", got, want)
	}
	if after := tool.Cache.Stats().Misses; after <= before {
		t.Fatalf("post-refresh read did not recompute: misses %d -> %d", before, after)
	}

	// and the new validator revalidates again
	resp = getWithETag(t, u, resp.Header.Get("ETag"))
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("new-generation revalidation = %d, want 304", resp.StatusCode)
	}
}

// TestConcurrentMissesComputeOnce hammers one cold view with parallel
// readers: the singleflight collapse must run the render pipeline once,
// however many requests raced.
func TestConcurrentMissesComputeOnce(t *testing.T) {
	tool, srv := cacheTestTool(t)
	u := srv.URL + "/view/sunburst?dataset=" + url.QueryEscape(dsURL)

	before := tool.Cache.Stats().Misses
	const readers = 12
	start := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(u)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// exactly one compute however many readers raced: view:sunburst (its
	// inputs are fields of the published state, not cache entries)
	if got := tool.Cache.Stats().Misses - before; got != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight must collapse concurrent misses)", got)
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	_, srv := cacheTestTool(t)
	get(t, srv.URL+"/api/summary?dataset="+url.QueryEscape(dsURL))
	code, body, _ := get(t, srv.URL+"/api/cache")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, field := range []string{"hits", "misses", "collapsed", "bytes", "budget"} {
		if !strings.Contains(body, field) {
			t.Fatalf("cache stats missing %q: %s", field, body)
		}
	}
}
