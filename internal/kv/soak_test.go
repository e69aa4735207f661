package kv

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSoakReadersSeeWholeBatches is the -race soak for the writer-lock /
// state-lock split: one writer applies put and delete batches with fsync
// on and a memtable small enough that flushes and compactions keep
// happening under it; four readers loop Snapshot → Get/Scan → Release.
// Batch i writes (or deletes) every key of group i%groups with the value
// i and stamps "head" with i, so from a snapshot's head the whole
// expected content follows: a snapshot showing anything else has seen
// part of a batch, or lost one.
//
// It runs twice: with the block cache at its real budget, and with room
// for a few of its 512-byte blocks, so readers evict each other's blocks
// while the writer retires the segments they came from.
func TestSoakReadersSeeWholeBatches(t *testing.T) {
	t.Run("cache=default", soakReadersSeeWholeBatches)
	t.Run("cache=few-blocks", func(t *testing.T) {
		setBlockCacheBudget(t, 4<<10)
		soakReadersSeeWholeBatches(t)
	})
}

func soakReadersSeeWholeBatches(t *testing.T) {
	const (
		groups  = 61
		perGrp  = 16
		batches = 300
		readers = 4
	)
	db := openT(t, t.TempDir(), Options{MemtableBytes: 64 << 10, MaxSegments: 3, BlockBytes: 512})
	defer db.Close()

	pad := strings.Repeat("~", 120)
	val := func(i int) []byte { return []byte(strconv.Itoa(i) + pad) }
	isDelete := func(i int) bool { return i%5 == 3 }
	key := func(g, k int) string { return fmt.Sprintf("g%02d-k%02d", g, k) }

	// check verifies one snapshot against the state batches 0..head leave.
	check := func(sn *Snap) error {
		raw, ok := sn.Get("head")
		if !ok {
			if n := countKeys(sn, "", ""); n != 0 {
				return fmt.Errorf("no head but %d keys", n)
			}
			return nil
		}
		head, err := strconv.Atoi(strings.TrimSuffix(string(raw), pad))
		if err != nil {
			return fmt.Errorf("head = %q", raw)
		}
		want := map[string]string{"head": string(val(head))}
		for g := 0; g < groups; g++ {
			last := head - ((head-g)%groups+groups)%groups // newest batch <= head on group g
			if last < 0 || isDelete(last) {
				continue
			}
			for k := 0; k < perGrp; k++ {
				want[key(g, k)] = string(val(last))
			}
		}
		seen := 0
		var bad error
		sn.Scan("", "", func(k string, v []byte) bool {
			seen++
			if want[k] != string(v) {
				bad = fmt.Errorf("head %d: %s = %.12q, want %.12q", head, k, v, want[k])
			}
			return bad == nil
		})
		if bad != nil {
			return bad
		}
		if seen != len(want) {
			return fmt.Errorf("head %d: scan saw %d keys, want %d", head, seen, len(want))
		}
		probe := key(head%groups, head%perGrp)
		if v, ok := sn.Get(probe); ok != (want[probe] != "") || string(v) != want[probe] {
			return fmt.Errorf("head %d: Get(%s) = %.12q,%v, want %.12q", head, probe, v, ok, want[probe])
		}
		return nil
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := db.Snapshot()
				err := check(sn)
				sn.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		var b Batch
		for k := 0; k < perGrp; k++ {
			if isDelete(i) {
				b.Delete(key(i%groups, k))
			} else {
				b.Put(key(i%groups, k), val(i))
			}
		}
		b.Put("head", val(i))
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	db.compactWG.Wait()

	sn := db.Snapshot()
	defer sn.Release()
	if err := check(sn); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Flushes < 4 || st.Compactions < 1 {
		t.Fatalf("the soak must cross flushes and compactions, got %+v", st)
	}
}
