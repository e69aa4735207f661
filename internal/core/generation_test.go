package core

import (
	"sync"
	"testing"

	"repro/internal/synth"
)

// TestGenerationCounter: generation is 0 until the first successful
// extraction, then increments once per successful Process — and reads
// within one generation share one value, reads at distinct generations
// get distinct ones.
func TestGenerationCounter(t *testing.T) {
	h, _ := newTool(t)
	url := connectScholarly(t, h)

	if g := h.Generation(url); g != 0 {
		t.Fatalf("generation before extraction = %d, want 0", g)
	}
	if g := h.Generation("http://nobody/sparql"); g != 0 {
		t.Fatalf("generation of unknown dataset = %d, want 0", g)
	}
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	if g := h.Generation(url); g != 1 {
		t.Fatalf("generation after first extraction = %d, want 1", g)
	}

	// a read at generation 1…
	s1, err := h.Summary(url)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := h.Summary(url); again != s1 {
		t.Fatal("repeated Summary within one generation returned a second value")
	}
	if h.State(url) != h.State(url) {
		t.Fatal("repeated State within one generation returned a second value")
	}

	// …is not what readers get after the refresh publishes generation 2
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	if g := h.Generation(url); g != 2 {
		t.Fatalf("generation after refresh = %d, want 2", g)
	}
	if s2, err := h.Summary(url); err != nil || s2 == s1 {
		t.Fatalf("post-refresh Summary served the previous generation's value (err %v)", err)
	}
}

// TestSharedSummaryConcurrentLookups: every reader gets the same
// published *schema.Summary, so concurrent IRI lookups on it must be
// race-free (run with -race; a summary published without its lookup
// index races on the lazy index build).
func TestSharedSummaryConcurrentLookups(t *testing.T) {
	h, _ := newTool(t)
	url := connectScholarly(t, h)
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	focus := synth.ScholarlyNS + "Event"
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := h.Explore(url, focus)
			if err != nil {
				errs <- err
				return
			}
			if _, err := ex.Expand(focus); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestProcessFailureKeepsGeneration: a failed extraction must not bump
// the generation — clients keep revalidating against the last good
// snapshot.
func TestProcessFailureKeepsGeneration(t *testing.T) {
	h, _ := newTool(t)
	url := connectScholarly(t, h)
	if err := h.Process(url); err != nil {
		t.Fatal(err)
	}
	if err := h.Process("http://unconnected/sparql"); err == nil {
		t.Fatal("expected failure for unconnected endpoint")
	}
	if g := h.Generation("http://unconnected/sparql"); g != 0 {
		t.Fatalf("failed extraction bumped generation to %d", g)
	}
	if g := h.Generation(url); g != 1 {
		t.Fatalf("unrelated dataset generation = %d, want 1", g)
	}
}
