package turtle

// Each runs the parser on a goroutine of its own and hands triples over in
// batches. These tests hold it to the synchronous parser core it wraps:
// the same triples in the same order, the same error, and no goroutine
// left behind whichever way the call ends.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/synth"
)

// parseSync runs the synchronous parser core on src.
func parseSync(src string) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := newParser(src, func(t rdf.Triple) { ts = append(ts, t) }).run()
	return ts, err
}

// parseEach runs Each on src.
func parseEach(src string) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	err := Each(src, func(t rdf.Triple) { ts = append(ts, t) })
	return ts, err
}

// errString is err's message, "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameAsCore fails unless Each emits what the synchronous core emits on
// src, in the same order, and ends with the same error.
func sameAsCore(tb testing.TB, name, src string) {
	tb.Helper()
	want, wantErr := parseSync(src)
	got, gotErr := parseEach(src)
	if errString(gotErr) != errString(wantErr) {
		tb.Fatalf("%s: Each returned %q, the parser core %q", name, errString(gotErr), errString(wantErr))
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		tb.Fatalf("%s: Each emitted %d triples, the parser core %d; they part at triple %d", name, len(got), len(want), i)
	}
}

// corpusNT is the synthetic corpus at the given instance count as the
// N-Triples document hbold sparqld loads.
func corpusNT(instances int) string {
	spec := synth.DefaultSpec("bench", 1)
	spec.Instances = instances
	return WriteNTriples(synth.Generate(spec).Graph())
}

// edgesNT repeats triples and holds a 600-object list, so a subject's run
// crosses batch boundaries.
func edgesNT() string {
	var b strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&b, "<http://ex/hub> <http://ex/p> \"v%d\" .\n", i)
		fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/q> <http://ex/o%d> .\n", i%97, i)
		if i%7 == 0 {
			fmt.Fprintf(&b, "<http://ex/hub> <http://ex/p> \"v%d\" .\n", i/2)
		}
	}
	return b.String()
}

func TestEachMatchesParserCore(t *testing.T) {
	docs := map[string]string{"synth-2000.nt": corpusNT(2000), "edges.nt": edgesNT(), "empty": ""}
	files, err := filepath.Glob(filepath.Join("..", "testsuite", "testdata", "data", "*.ttl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance data files: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[filepath.Base(path)] = string(raw)
	}
	for name, src := range docs {
		sameAsCore(t, name, src)
		// cut short at points spread over the document, mid-token as
		// often as not, and broken at the same points
		for _, frac := range []int{3, 5, 7, 11} {
			at := len(src) * (frac - 1) / frac
			sameAsCore(t, fmt.Sprintf("%s cut at %d", name, at), src[:at])
			sameAsCore(t, fmt.Sprintf("%s broken at %d", name, at), src[:at]+" <http://ex/a> <http://ex/p> . "+src[at:])
			sameAsCore(t, fmt.Sprintf("%s unknown prefix at %d", name, at), src[:at]+"\nnope:a nope:b nope:c .\n"+src[at:])
		}
	}
}

// settles waits for the goroutine count to fall back to base: a goroutine
// that has signalled its end may still be counted for a moment.
func settles(base int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
	}
	return false
}

func TestEachLeavesNoGoroutine(t *testing.T) {
	doc := strings.Repeat(edgesNT(), 4) // 5,144 triples: six batches
	base := runtime.NumGoroutine()
	if _, err := parseEach(doc); err != nil {
		t.Fatal(err)
	}
	if !settles(base) {
		t.Fatalf("after a normal return: %d goroutines, want %d", runtime.NumGoroutine(), base)
	}
	if _, err := parseEach(doc + "<http://ex/a> <http://ex/p> ."); err == nil {
		t.Fatal("a broken last statement parsed")
	}
	if !settles(base) {
		t.Fatalf("after an error: %d goroutines, want %d", runtime.NumGoroutine(), base)
	}
	// emit panics a few batches in, with the parser ahead of it
	for _, at := range []int{0, batchSize, 3*batchSize + 5} {
		n := 0
		got := func() (v any) {
			defer func() { v = recover() }()
			Each(doc, func(rdf.Triple) {
				if n++; n > at {
					panic("emit gave up")
				}
			})
			return nil
		}()
		if got != "emit gave up" {
			t.Fatalf("emit's panic after %d triples came back as %v", at, got)
		}
		if !settles(base) {
			t.Fatalf("after emit panicked at triple %d: %d goroutines, want %d", at, runtime.NumGoroutine(), base)
		}
	}
}
