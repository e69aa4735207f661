package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/synth"
)

const dsURL = "http://scholarly.example.org/sparql"

func testServer(t testing.TB) *httptest.Server {
	t.Helper()
	ck := clock.NewSim(clock.Epoch)
	tool := core.New(docstore.MustOpenMem(), ck)
	tool.Registry.Add(registry.Entry{URL: dsURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
	tool.Connect(dsURL, endpoint.LocalClient{Store: synth.Scholarly(1)})
	if err := tool.Process(dsURL); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)
	return srv
}

func get(t testing.TB, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHomePage(t *testing.T) {
	srv := testServer(t)
	code, body, hdr := get(t, srv.URL+"/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("content type = %s", hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "Scholarly LD") {
		t.Fatal("dataset list missing")
	}
	if !strings.Contains(body, "Insert a new SPARQL endpoint") {
		t.Fatal("manual insertion form missing")
	}
}

func TestDatasetsAPI(t *testing.T) {
	srv := testServer(t)
	code, body, _ := get(t, srv.URL+"/api/datasets")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var ds []core.DatasetInfo
	if err := json.Unmarshal([]byte(body), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Classes != synth.ScholarlyClassCount() {
		t.Fatalf("datasets = %+v", ds)
	}
}

func TestSummaryAndClusterAPI(t *testing.T) {
	srv := testServer(t)
	code, body, _ := get(t, srv.URL+"/api/summary?dataset="+url.QueryEscape(dsURL))
	if code != 200 || !strings.Contains(body, "Event") {
		t.Fatalf("summary: %d %.80s", code, body)
	}
	code, body, _ = get(t, srv.URL+"/api/cluster?dataset="+url.QueryEscape(dsURL))
	if code != 200 || !strings.Contains(body, "clusters") {
		t.Fatalf("cluster: %d %.80s", code, body)
	}
	code, _, _ = get(t, srv.URL+"/api/summary?dataset=http://nope")
	if code != 404 {
		t.Fatalf("missing dataset status = %d", code)
	}
}

func TestExploreAPI(t *testing.T) {
	srv := testServer(t)
	event := synth.ScholarlyNS + "Event"
	code, body, _ := get(t, srv.URL+"/api/explore?dataset="+url.QueryEscape(dsURL)+"&focus="+url.QueryEscape(event))
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var step struct {
		Nodes    int     `json:"nodes"`
		Coverage float64 `json:"coveragePercent"`
		Complete bool    `json:"complete"`
	}
	if err := json.Unmarshal([]byte(body), &step); err != nil {
		t.Fatal(err)
	}
	if step.Nodes != 1 || step.Complete {
		t.Fatalf("step = %+v", step)
	}
	// expand the focus class
	code, body, _ = get(t, srv.URL+"/api/explore?dataset="+url.QueryEscape(dsURL)+
		"&focus="+url.QueryEscape(event)+"&expand="+url.QueryEscape(event))
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var step2 struct {
		Nodes    int     `json:"nodes"`
		Coverage float64 `json:"coveragePercent"`
	}
	json.Unmarshal([]byte(body), &step2)
	if step2.Nodes <= step.Nodes || step2.Coverage <= step.Coverage {
		t.Fatalf("expansion did not grow: %+v → %+v", step, step2)
	}
	// full expansion
	code, body, _ = get(t, srv.URL+"/api/explore?dataset="+url.QueryEscape(dsURL)+
		"&focus="+url.QueryEscape(event)+"&all=true")
	var step3 struct {
		Complete bool    `json:"complete"`
		Coverage float64 `json:"coveragePercent"`
	}
	json.Unmarshal([]byte(body), &step3)
	if code != 200 || !step3.Complete || step3.Coverage < 99.9 {
		t.Fatalf("full expansion = %+v", step3)
	}
}

func TestExploreErrors(t *testing.T) {
	srv := testServer(t)
	code, _, _ := get(t, srv.URL+"/api/explore?dataset="+url.QueryEscape(dsURL)+"&focus=http://nope")
	if code != 404 {
		t.Fatalf("bad focus status = %d", code)
	}
	code, _, _ = get(t, srv.URL+"/api/explore?dataset="+url.QueryEscape(dsURL)+
		"&focus="+url.QueryEscape(synth.ScholarlyNS+"Event")+"&expand=http://invisible")
	if code != 400 {
		t.Fatalf("bad expand status = %d", code)
	}
}

func TestViewEndpoints(t *testing.T) {
	srv := testServer(t)
	views := []string{"treemap", "sunburst", "circlepack", "bundle", "cluster-graph", "summary-graph"}
	for _, v := range views {
		code, body, hdr := get(t, srv.URL+"/view/"+v+"?dataset="+url.QueryEscape(dsURL))
		if code != 200 {
			t.Fatalf("view %s status = %d", v, code)
		}
		if ct := hdr.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("view %s content type = %s", v, ct)
		}
		if !strings.HasPrefix(body, "<svg") {
			t.Fatalf("view %s is not svg", v)
		}
	}
}

func TestBundleViewWithFocus(t *testing.T) {
	srv := testServer(t)
	code, body, _ := get(t, srv.URL+"/view/bundle?dataset="+url.QueryEscape(dsURL)+
		"&focus="+url.QueryEscape(synth.ScholarlyNS+"Event"))
	if code != 200 || !strings.Contains(body, `font-weight="bold"`) {
		t.Fatalf("focused bundle view: %d", code)
	}
}

func TestSummaryGraphPartialView(t *testing.T) {
	srv := testServer(t)
	visible := synth.ScholarlyNS + "Event," + synth.ScholarlyNS + "Situation"
	code, body, _ := get(t, srv.URL+"/view/summary-graph?dataset="+url.QueryEscape(dsURL)+
		"&visible="+url.QueryEscape(visible))
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "2 classes shown") {
		t.Fatal("partial view header missing")
	}
}

func TestSubmitEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.PostForm(srv.URL+"/submit", url.Values{
		"url":   {"http://new.example.org/sparql"},
		"email": {"someone@example.org"},
		"title": {"New LD"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	// duplicate submission rejected
	resp, _ = http.PostForm(srv.URL+"/submit", url.Values{
		"url": {"http://new.example.org/sparql"}, "email": {"x@y.z"},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate status = %d", resp.StatusCode)
	}
	// GET not allowed
	code, _, _ := get(t, srv.URL+"/submit")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", code)
	}
}

func TestQueryBuilderEndpoint(t *testing.T) {
	srv := testServer(t)
	model := `{"Class":"` + synth.ScholarlyNS + `Event","Attributes":["` + synth.ScholarlyNS + `label"]}`
	resp, err := http.Post(srv.URL+"/api/query", "application/json", strings.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out map[string]string
	json.Unmarshal(body, &out)
	if !strings.Contains(out["sparql"], "SELECT") || !strings.Contains(out["sparql"], "Event") {
		t.Fatalf("sparql = %s", out["sparql"])
	}
}

func TestUnknownPath(t *testing.T) {
	srv := testServer(t)
	code, _, _ := get(t, srv.URL+"/nonexistent")
	if code != 404 {
		t.Fatalf("status = %d", code)
	}
}

// TestJobObservabilityAPI drives a refresh cycle through the HTTP
// layer and reads it back from /api/jobs and /metrics.
func TestJobObservabilityAPI(t *testing.T) {
	ck := clock.NewSim(clock.Epoch)
	tool := core.New(docstore.MustOpenMem(), ck)
	t.Cleanup(tool.Close)
	tool.Registry.Add(registry.Entry{URL: dsURL, Title: "Scholarly LD", Source: registry.SourceDataHub, AddedAt: clock.Epoch})
	tool.Connect(dsURL, endpoint.LocalClient{Store: synth.Scholarly(1)})
	srv := httptest.NewServer(New(tool))
	t.Cleanup(srv.Close)

	// before any scheduling: empty job list, zeroed counters
	code, body, _ := get(t, srv.URL+"/api/jobs")
	if code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("initial jobs = %d: %s", code, body)
	}

	// GET on the trigger endpoint is rejected
	if code, _, _ := get(t, srv.URL+"/api/refresh"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET refresh status = %d", code)
	}
	resp, err := http.Post(srv.URL+"/api/refresh", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var submitted map[string]int
	if err := json.Unmarshal(raw, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted["submitted"] != 1 {
		t.Fatalf("submitted = %v", submitted)
	}
	// the refresh runs asynchronously; wait for it through core
	if ok, failed := tool.RunDueConcurrent(context.Background()); ok+failed != 0 {
		// the due endpoint was already enqueued by /api/refresh, so the
		// second pass finds nothing new — deduping keeps this race-free
		t.Logf("second pass picked up %d ok, %d failed", ok, failed)
	}
	if err := tool.Scheduler().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := get(t, srv.URL+"/api/jobs")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("jobs status = %d", code)
	}
	var jobs []sched.Job
	if err := json.Unmarshal([]byte(body), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].URL != dsURL || jobs[0].State != sched.StateSucceeded {
		t.Fatalf("jobs = %+v", jobs)
	}

	// the scheduler's counters, gauges and attempt histogram are the
	// hbold_sched_* families of the one scrape surface
	code, body, _ = get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	for _, line := range []string{
		"hbold_sched_submitted_total 1",
		"hbold_sched_succeeded_total 1",
		"hbold_sched_running 0",
		"hbold_sched_attempt_seconds_count 1",
		`hbold_sched_attempt_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, body)
		}
	}
	if code, _, _ := get(t, srv.URL+"/api/metrics"); code != http.StatusNotFound {
		t.Fatalf("/api/metrics status = %d, want 404: /metrics is the only metrics surface", code)
	}
}
