package server

// Tests for the rule readers rely on: a handler takes its validator, its
// cache key and its builder's inputs from one published core.State, so an
// ETag names exactly one body — while updates and refreshes land, and
// across a clean restart.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/synth"
)

// statePaths is one request per versioned route.
func statePaths() []string {
	ds := "dataset=" + url.QueryEscape(dsURL)
	event := url.QueryEscape(synth.ScholarlyNS + "Event")
	return []string{
		"/api/summary?" + ds,
		"/api/cluster?" + ds,
		"/api/class?" + ds + "&class=" + event,
		"/api/model/treemap?" + ds,
		"/api/model/sunburst?" + ds,
		"/api/model/circlepack?" + ds,
		"/view/treemap?" + ds,
		"/view/sunburst?" + ds,
		"/view/circlepack?" + ds,
		"/view/bundle?" + ds + "&focus=" + event,
		"/view/cluster-graph?" + ds,
		"/view/summary-graph?" + ds,
	}
}

// reply is the (ETag, body) a path answered with.
type reply struct{ etag, body string }

func serve(t *testing.T, h http.Handler, path string) reply {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("%s -> %d: %s", path, rec.Code, rec.Body)
	}
	return reply{rec.Header().Get("ETag"), rec.Body.String()}
}

// ledger checks that every (path, ETag) pair is only ever seen with one
// body.
type ledger struct{ seen sync.Map }

func (l *ledger) record(t *testing.T, path string, s reply) {
	t.Helper()
	if s.etag == "" {
		t.Errorf("%s served without a validator", path)
		return
	}
	if prev, dup := l.seen.LoadOrStore(path+" "+s.etag, s.body); dup && prev != s.body {
		t.Errorf("%s: ETag %s validated two different bodies", path, s.etag)
	}
}

func generationOf(etag string) uint64 {
	at := strings.LastIndexByte(etag, '@')
	n, _ := strconv.ParseUint(strings.Trim(etag[at+1:], `"`), 10, 64)
	return n
}

func toggleUpdate(i int) string {
	if i%2 == 0 {
		return insertPaper
	}
	return strings.Replace(insertPaper, "INSERT DATA", "DELETE DATA", 1)
}

// TestOneETagOneBody (run with -race): readers hammer every versioned
// route of one dataset while updates and refreshes commit. Each body must
// be the one its ETag names — the generation read for the validator, the
// cache key and the documents the body is built from come from one State,
// so a body built from generation N+1 can never be cached or validated as
// N — and no reader sees a dataset's generation go backwards.
func TestOneETagOneBody(t *testing.T) {
	const updates, refreshes = 80, 8
	tool, _ := cacheTestTool(t)
	h := New(tool)
	paths := statePaths()
	var seen ledger
	var done atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for i := r; !done.Load(); i++ {
				path := paths[i%len(paths)]
				s := serve(t, h, path)
				seen.record(t, path, s)
				if g := generationOf(s.etag); g < last {
					t.Errorf("%s: generation went backwards, %d after %d", path, g, last)
				} else {
					last = g
				}
			}
		}()
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < updates; i++ {
			if _, err := tool.ApplyUpdate(context.Background(), dsURL, toggleUpdate(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < refreshes; i++ {
			if err := tool.Process(dsURL); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if g := tool.Generation(dsURL); g != 1+updates+refreshes {
		t.Fatalf("generation = %d, want %d", g, 1+updates+refreshes)
	}
}

// TestCleanRestartKeepsValidators: after SaveState and a reopen over the
// same directory a dataset serves, for every route, the ETag and the
// bytes it served before (the state decoded from the stored documents is
// the state that was published from memory), and the next update moves
// on to a validator no client can hold for other content. The first reads
// of the second life run concurrently: they share the decoded summary.
func TestCleanRestartKeepsValidators(t *testing.T) {
	dir := t.TempDir()
	st := synth.Scholarly(1)
	open := func() (*core.HBOLD, http.Handler) {
		db, err := docstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tool := core.New(db, clock.NewSim(clock.Epoch))
		t.Cleanup(tool.Close)
		if err := tool.LoadState(); err != nil {
			t.Fatal(err)
		}
		tool.Connect(dsURL, endpoint.LocalClient{Store: st})
		return tool, New(tool)
	}
	paths := statePaths()
	var seen ledger
	collect := func(h http.Handler) map[string]reply {
		out := make(map[string]reply, len(paths))
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, p := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := serve(t, h, p)
				seen.record(t, p, s)
				mu.Lock()
				out[p] = s
				mu.Unlock()
			}()
		}
		wg.Wait()
		return out
	}
	update := func(tool *core.HBOLD, i int) {
		t.Helper()
		if _, err := tool.ApplyUpdate(context.Background(), dsURL, toggleUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}

	// first life: extract, serve, update, serve, shut down cleanly
	tool, h := open()
	tool.Registry.Add(registry.Entry{URL: dsURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
	if err := tool.Process(dsURL); err != nil {
		t.Fatal(err)
	}
	collect(h)
	update(tool, 0)
	before := collect(h)
	if err := tool.SaveState(); err != nil {
		t.Fatal(err)
	}

	// second life: nothing is extracted again
	tool, h = open()
	after := collect(h)
	for _, p := range paths {
		if after[p] != before[p] {
			t.Errorf("%s changed across the restart: ETag %s -> %s, same body %v",
				p, before[p].etag, after[p].etag, before[p].body == after[p].body)
		}
	}
	update(tool, 1)
	for p, s := range collect(h) {
		if want := fmt.Sprintf("%q", dsURL+"@3"); s.etag != want {
			t.Errorf("%s after the restart's first update: ETag %s, want %s", p, s.etag, want)
		}
	}
}
