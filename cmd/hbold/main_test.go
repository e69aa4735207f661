package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestDebugListener: -debug-addr is off when empty, and when set serves
// the net/http/pprof index and profiles on a listener of its own, with
// heap sampling turned back on for the heap profile.
func TestDebugListener(t *testing.T) {
	runtime.MemProfileRate = 0 // as main leaves it
	if ln := debugListen(""); ln != nil {
		t.Fatal("an empty -debug-addr opened a listener")
	}
	if runtime.MemProfileRate != 0 {
		t.Fatal("an empty -debug-addr turned heap sampling on")
	}
	ln := debugListen("127.0.0.1:0")
	defer ln.Close()
	if runtime.MemProfileRate == 0 {
		t.Fatal("the debug listener left heap sampling off")
	}
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/heap?debug=1":      "heap profile",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
	} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: %d, %.200q; want 200 with %q", path, resp.StatusCode, body, want)
		}
	}
}

// TestReadStringCopiesOnce: the document a load parses is read into one
// string, not into a byte slice and then copied into a string.
func TestReadStringCopiesOnce(t *testing.T) {
	const size = 4 << 20
	want := strings.Repeat("<http://ex/s> <http://ex/p> \"o\" .\n", size/34)
	path := filepath.Join(t.TempDir(), "doc.nt")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, err := readString(path)
	runtime.ReadMemStats(&m1)
	if err != nil || got != want {
		t.Fatalf("readString: %d bytes (%v), want the file's %d", len(got), err, len(want))
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(len(want))*5/4 {
		t.Errorf("reading a %d-byte file allocated %d bytes: more than one copy of it", len(want), alloc)
	}
}
