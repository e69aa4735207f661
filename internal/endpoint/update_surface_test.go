// The SPARQL protocol update surface. These tests live in the external
// test package so they can wire internal/update through the Handler's
// UpdateFunc callback — the endpoint package itself must stay free of
// the update subsystem (update imports schema, whose extraction layer
// imports endpoint).
package endpoint_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/update"
)

func updateStore(t testing.TB) *store.Store {
	t.Helper()
	g, err := turtle.Parse(`
@prefix ex: <http://ex/> .
ex:a a ex:C .
ex:b a ex:C .
`)
	if err != nil {
		t.Fatal(err)
	}
	return store.FromGraph(g)
}

// wire builds a protocol handler whose update surface mutates st, the
// same shape cmd/hbold's sparqld uses.
func wire(st *store.Store) *endpoint.Handler {
	h := &endpoint.Handler{Store: st}
	h.Update = func(ctx context.Context, text string) (int, int, error) {
		d, err := update.ApplyText(ctx, st, text)
		if err != nil {
			return 0, 0, err
		}
		return len(d.Added), len(d.Removed), nil
	}
	return h
}

func postUpdate(t testing.TB, srv *httptest.Server, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func countRows(t testing.TB, srv *httptest.Server, query string) int {
	t.Helper()
	c := endpoint.NewHTTPClient(srv.URL)
	res, err := c.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

func TestUpdateSurfaceRawBody(t *testing.T) {
	st := updateStore(t)
	srv := httptest.NewServer(wire(st))
	defer srv.Close()

	code, body := postUpdate(t, srv, "application/sparql-update",
		`INSERT DATA { <http://ex/c> a <http://ex/C> }`)
	if code != 200 {
		t.Fatalf("status = %d, body %q", code, body)
	}
	if strings.TrimSpace(body) != `{"added":1,"removed":0}` {
		t.Fatalf("body = %q", body)
	}
	if n := countRows(t, srv, `SELECT ?s WHERE { ?s a <http://ex/C> }`); n != 3 {
		t.Fatalf("instances after insert = %d, want 3", n)
	}
}

func TestUpdateSurfaceFormField(t *testing.T) {
	st := updateStore(t)
	srv := httptest.NewServer(wire(st))
	defer srv.Close()

	form := url.Values{"update": {`DELETE DATA { <http://ex/b> a <http://ex/C> }`}}
	code, body := postUpdate(t, srv, "application/x-www-form-urlencoded", form.Encode())
	if code != 200 {
		t.Fatalf("status = %d, body %q", code, body)
	}
	if strings.TrimSpace(body) != `{"added":0,"removed":1}` {
		t.Fatalf("body = %q", body)
	}
	if n := countRows(t, srv, `SELECT ?s WHERE { ?s a <http://ex/C> }`); n != 1 {
		t.Fatalf("instances after delete = %d, want 1", n)
	}
}

func TestUpdateSurfaceModify(t *testing.T) {
	st := updateStore(t)
	srv := httptest.NewServer(wire(st))
	defer srv.Close()

	code, body := postUpdate(t, srv, "application/sparql-update",
		`DELETE { ?s a <http://ex/C> } INSERT { ?s a <http://ex/D> } WHERE { ?s a <http://ex/C> }`)
	if code != 200 {
		t.Fatalf("status = %d, body %q", code, body)
	}
	if strings.TrimSpace(body) != `{"added":2,"removed":2}` {
		t.Fatalf("body = %q", body)
	}
	if n := countRows(t, srv, `SELECT ?s WHERE { ?s a <http://ex/D> }`); n != 2 {
		t.Fatalf("reclassified instances = %d, want 2", n)
	}
}

func TestUpdateSurfaceReadOnly(t *testing.T) {
	st := updateStore(t)
	h := wire(st)
	h.ReadOnly = true
	srv := httptest.NewServer(h)
	defer srv.Close()

	code, _ := postUpdate(t, srv, "application/sparql-update",
		`INSERT DATA { <http://ex/c> a <http://ex/C> }`)
	if code != http.StatusForbidden {
		t.Fatalf("read-only update status = %d, want 403", code)
	}
	if st.Len() != 2 {
		t.Fatalf("store mutated through read-only surface: %d triples", st.Len())
	}
	// the query surface stays up in read-only mode
	if n := countRows(t, srv, `SELECT ?s WHERE { ?s a <http://ex/C> }`); n != 2 {
		t.Fatalf("read-only query rows = %d, want 2", n)
	}
}

func TestUpdateSurfaceUnwired(t *testing.T) {
	srv := httptest.NewServer(&endpoint.Handler{Store: updateStore(t)})
	defer srv.Close()
	code, _ := postUpdate(t, srv, "application/sparql-update",
		`INSERT DATA { <http://ex/c> a <http://ex/C> }`)
	if code != http.StatusForbidden {
		t.Fatalf("unwired update status = %d, want 403", code)
	}
}

func TestUpdateSurfaceBadSyntax(t *testing.T) {
	srv := httptest.NewServer(wire(updateStore(t)))
	defer srv.Close()
	code, _ := postUpdate(t, srv, "application/sparql-update", `INSERT GARBAGE`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad update status = %d, want 400", code)
	}
}

// TestUpdateBodyIsReadOnce: a raw update body is read into one buffer,
// sized from Content-Length, and that buffer is the text apply gets: a
// 1 MiB body costs about 1 MiB of allocation, not a growing read buffer
// and a copy of it.
func TestUpdateBodyIsReadOnce(t *testing.T) {
	body := `INSERT DATA { <http://ex/s> <http://ex/p> "` + strings.Repeat("x", 1<<20) + `" }`
	var got string
	apply := func(_ context.Context, text string) (any, error) {
		got = text
		return nil, nil
	}
	serve := func() uint64 {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/sparql-update")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, status := endpoint.ServeUpdate(httptest.NewRecorder(), req, false, apply)
		runtime.ReadMemStats(&after)
		if status != http.StatusOK || got != body {
			t.Fatalf("status %d, apply got %d bytes of the %d-byte body", status, len(got), len(body))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	serve() // warm the recorder's and the request's lazy state
	n, limit := serve(), uint64(len(body))+256<<10
	t.Logf("reading a %d-byte update allocated %d bytes", len(body), n)
	if n > limit {
		t.Fatalf("want at most %d", limit)
	}
}
