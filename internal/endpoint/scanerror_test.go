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
	"testing"

	"repro/internal/endpoint"
	"repro/internal/kv"
	"repro/internal/sparql"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// TestUnreadableSegmentFailsTheQuery: a disk-tier scan that cannot read
// part of its range fails the query — the stream ends with the error and
// the endpoint answers 500 and logs it — instead of returning a silently short
// answer, and the failure is counted (KVStats().ReadErrors, exported as
// hbold_kv_read_errors_total). The corpus is written through a small
// memtable so it lands in segments; the store is reopened and every
// segment file truncated to a third under it.
func TestUnreadableSegmentFailsTheQuery(t *testing.T) {
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
	defer ds.Close()
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
		t.Fatalf("a scan over truncated segments streamed %d of %d rows and no error", rows, src.Len())
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
