package main

import (
	"io"
	"net/http"
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
