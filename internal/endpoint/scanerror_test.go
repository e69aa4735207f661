package endpoint_test

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/kv"
	"repro/internal/resilience"
	"repro/internal/sparql"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// TestUnreadableSegmentFailsTheQuery: a disk-tier scan that cannot read
// part of its range fails the query — the stream ends with the error and
// the endpoint answers 500 and logs it — instead of returning a silently short
// answer, and the failure is counted (KVStats().ReadErrors, exported as
// hbold_kv_read_errors_total).
func TestUnreadableSegmentFailsTheQuery(t *testing.T) {
	ds, triples := damagedStore(t)
	const query = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`
	rs, err := sparql.StreamExec(context.Background(), ds, query)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for range rs.Terms() {
		rows++
	}
	if rs.Err() == nil {
		t.Fatalf("a scan over truncated segments streamed %d of %d rows and no error", rows, triples)
	}

	var log bytes.Buffer
	h := &endpoint.Handler{Store: ds, Log: slog.New(slog.NewTextHandler(&log, nil))}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/?format=json&query="+url.QueryEscape(query), nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d over truncated segments, want 500", rec.Code)
	}
	if !strings.Contains(log.String(), "status=500") {
		t.Fatalf("the access log does not record the 500: %q", log.String())
	}
	if n := ds.KVStats().ReadErrors; n == 0 {
		t.Fatal("no segment read error was counted")
	}
}

// TestDamagedSegmentCostsEveryRetry pins what a deterministic storage
// failure costs a client (ROADMAP 6(c)). The endpoint answers a scan over
// a damaged segment with 500, and HTTPClient retries every 5xx: by status
// a damaged segment cannot be told from an overloaded endpoint. So one
// query is sent 1+Retries times, fails the same way each time, and spends
// Retries tokens of the process's shared retry budget, which other
// endpoints' retries then cannot spend.
func TestDamagedSegmentCostsEveryRetry(t *testing.T) {
	ds, _ := damagedStore(t)
	var requests atomic.Int64
	h := &endpoint.Handler{Store: ds}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := endpoint.NewHTTPClient(srv.URL)
	c.Retries, c.BaseBackoff, c.MaxBackoff = 3, time.Millisecond, time.Millisecond
	c.Budget = resilience.NewBudget(10, 1)
	if _, err := c.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`); err == nil || !strings.Contains(err.Error(), "returned 500") {
		t.Fatalf("a query over a damaged segment: %v, want the endpoint's 500", err)
	}
	if n := requests.Load(); n != 4 {
		t.Errorf("the query cost %d requests, want 1+Retries = 4", n)
	}
	if left := c.Budget.Tokens(); left != 7 {
		t.Errorf("the retry budget holds %v tokens of 10, want 7: one per retry", left)
	}
}

// damagedStore is a disk store whose every segment file is truncated to a
// third under it, beside the triple count it was written with. The
// corpus is written through a small memtable so it lands in segments,
// and the store is reopened over the damage.
func damagedStore(t *testing.T) (*disk.Store, int) {
	t.Helper()
	src := synth.Generate(synth.Spec{Name: "scanerr", Classes: 6, Instances: 400, ObjectProps: 6, DataProps: 4, LinkFactor: 2, Seed: 7})
	dir := t.TempDir()
	opts := disk.Options{KV: kv.Options{NoSync: true, MemtableBytes: 64 << 10}}
	ds, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.CopyFrom(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = disk.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	var segs []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".seg" {
			segs = append(segs, path)
		}
		return nil
	})
	if len(segs) == 0 {
		t.Fatal("the corpus left no segment file")
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, fi.Size()/3); err != nil {
			t.Fatal(err)
		}
	}

	return ds, src.Len()
}
