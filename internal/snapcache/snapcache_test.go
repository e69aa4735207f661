package snapcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func k(url string, gen uint64, view string) Key {
	return Key{URL: url, Generation: gen, View: view}
}

// val is a snapshot reading s that occupies size bytes of the budget.
func val(s string, size int) []byte { return append(make([]byte, 0, size), s...) }

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	computes := 0
	get := func() ([]byte, error) {
		return c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
			computes++
			return val("payload", 7), nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || string(v) != "payload" {
			t.Fatalf("get = %v, %v", v, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 || st.Bytes != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerationKeysDistinct(t *testing.T) {
	c := New(1 << 20)
	for gen := uint64(1); gen <= 3; gen++ {
		v, err := c.GetOrCompute(k("u", gen, "v"), func() ([]byte, error) {
			return val(fmt.Sprintf("gen%d", gen), 4), nil
		})
		if err != nil || string(v) != fmt.Sprintf("gen%d", gen) {
			t.Fatalf("gen %d: got %v, %v", gen, v, err)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(100)
	put := func(view string) {
		c.GetOrCompute(k("u", 1, view), func() ([]byte, error) { return val(view, 40), nil })
	}
	put("a")
	put("b")
	// touch "a" so "b" is the LRU victim when "c" overflows the budget
	c.GetOrCompute(k("u", 1, "a"), func() ([]byte, error) {
		t.Fatal("expected a to be resident")
		return nil, nil
	})
	put("c")
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v", st)
	}
	// "b" must be gone, "a" and "c" resident
	recomputed := false
	c.GetOrCompute(k("u", 1, "b"), func() ([]byte, error) {
		recomputed = true
		return val("b", 40), nil
	})
	if !recomputed {
		t.Fatal("LRU victim was not b")
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	c := New(10)
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompute(k("u", 1, "big"), func() ([]byte, error) {
			return val("big", 100), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	c := New(1 << 20)
	const readers = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	// one leader blocks inside compute while the rest pile up on the key
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
			computes.Add(1)
			close(started)
			<-gate
			return val("once", 4), nil
		})
	}()
	<-started
	results := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
				computes.Add(1)
				return val("once", 4), nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}
	for i, v := range results {
		if string(v) != "once" {
			t.Fatalf("reader %d got %v", i, v)
		}
	}
}

func TestInvalidateBefore(t *testing.T) {
	c := New(1 << 20)
	c.GetOrCompute(k("u", 1, "a"), func() ([]byte, error) { return val("a1", 4), nil })
	c.GetOrCompute(k("u", 1, "b"), func() ([]byte, error) { return val("b1", 4), nil })
	c.GetOrCompute(k("u", 2, "a"), func() ([]byte, error) { return val("a2", 4), nil })
	c.GetOrCompute(k("other", 1, "a"), func() ([]byte, error) { return val("o1", 4), nil })
	if n := c.InvalidateBefore("u", 2, 2); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Invalidations != 2 || st.Bytes != 8 {
		t.Fatalf("stats = %+v", st)
	}
	// the current generation and the other URL survive
	hits := st.Hits
	c.GetOrCompute(k("u", 2, "a"), func() ([]byte, error) {
		t.Fatal("current generation was invalidated")
		return nil, nil
	})
	c.GetOrCompute(k("other", 1, "a"), func() ([]byte, error) {
		t.Fatal("unrelated URL was invalidated")
		return nil, nil
	})
	if got := c.Stats().Hits; got != hits+2 {
		t.Fatalf("hits = %d, want %d", got, hits+2)
	}
}

// TestInvalidateBeforeTopology: a Topology key is measured against the
// topology epoch and a generation key against the generation, so a commit
// that carries the topology forward keeps exactly the topology entries.
func TestInvalidateBeforeTopology(t *testing.T) {
	c := New(1 << 20)
	topo := func(gen uint64, params string) Key {
		return Key{URL: "u", Generation: gen, Topology: true, View: "view:bundle", Params: params}
	}
	put := func(key Key) {
		c.GetOrCompute(key, func() ([]byte, error) { return val("x", 4), nil })
	}
	put(k("u", 3, "a"))
	put(topo(3, "f1"))
	put(topo(3, "f2"))
	// generation 4, topology still 3: only the generation entry goes
	if n := c.InvalidateBefore("u", 4, 3); n != 1 {
		t.Fatalf("invalidated %d, want 1 (the generation-3 entry)", n)
	}
	misses := c.Stats().Misses
	put(topo(3, "f1"))
	put(topo(3, "f2"))
	if got := c.Stats().Misses; got != misses {
		t.Fatalf("a carried-forward topology entry was dropped (%d misses)", got-misses)
	}
	// a generation entry whose number equals the topology epoch is still
	// stale: the kinds are not mixed up
	put(k("u", 4, "a"))
	if n := c.InvalidateBefore("u", 5, 4); n != 3 {
		t.Fatalf("invalidated %d, want 3 (generation 4 and both topology-3 entries)", n)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after both epochs moved", st.Entries)
	}
}

// TestComputePanicDoesNotWedgeKey: a panicking compute must release
// collapsed waiters with an error and leave the key retryable, not
// park every future reader on a dead flight entry.
func TestComputePanicDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 20)
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
			close(started)
			<-gate
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
			return val("late", 4), nil
		})
		waiter <- err
	}()
	// wait until the second caller has collapsed onto the flight before
	// triggering the panic
	for c.Stats().Collapsed == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-leaderDone
	if err := <-waiter; err == nil {
		t.Fatal("collapsed waiter got nil error from a panicked compute")
	}
	// the key must be retryable, not wedged
	v, err := c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
		return val("ok", 2), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats after retry = %+v", st)
	}
}

func TestDisabledAndNil(t *testing.T) {
	for _, c := range []*Cache{nil, New(0)} {
		if c.Enabled() {
			t.Fatal("disabled cache reports enabled")
		}
		computes := 0
		for i := 0; i < 2; i++ {
			v, err := c.GetOrCompute(k("u", 1, "v"), func() ([]byte, error) {
				computes++
				return val("x", 1), nil
			})
			if err != nil || string(v) != "x" {
				t.Fatalf("get = %v, %v", v, err)
			}
		}
		if computes != 2 {
			t.Fatalf("computes = %d, want 2 (pass-through)", computes)
		}
		if n := c.InvalidateBefore("u", 9, 9); n != 0 {
			t.Fatalf("invalidate on disabled cache = %d", n)
		}
	}
}
