package disk_test

// The read path's contract: Snapshot serves the last committed state,
// writes nothing, and gives its segment pins back when the query ends.

import (
	"context"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/disk"
)

// TestSnapshotServesCommittedState: a staged Insert is invisible to
// Snapshot and to a served query, neither of which appends to the WAL;
// Flush commits it as one record and only then is it visible. Match and
// Cardinality keep their write-then-read promise by flushing themselves.
func TestSnapshotServesCommittedState(t *testing.T) {
	ds := openT(t, t.TempDir())
	defer ds.Close()
	trs := fixtureTriples()
	for _, tr := range trs[:4] {
		mustInsert(t, ds, tr)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	staged := triple(rdf.NewIRI("http://example.org/new"), rdf.NewIRI("http://example.org/knows"), rdf.NewIRI("http://example.org/a"))
	mustInsert(t, ds, staged)
	appends := ds.KVStats().WALAppends

	const knows = `SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }`
	rows := func() int {
		t.Helper()
		res, err := sparql.Exec(ds, knows)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	r := ds.Snapshot()
	if r.Len() != 4 || r.Lookup(staged.S) != store.NoID {
		t.Fatalf("Snapshot shows staged writes: Len %d, Lookup(new) %d", r.Len(), r.Lookup(staged.S))
	}
	if n := rows(); n != 2 {
		t.Fatalf("query over staged batch returned %d rows, want the 2 committed ones", n)
	}
	if got := ds.KVStats().WALAppends; got != appends {
		t.Fatalf("reads appended to the WAL: %d → %d", appends, got)
	}
	if ds.Len() != 5 {
		t.Fatalf("Store.Len = %d, want 5 (it counts the pending batch)", ds.Len())
	}

	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := ds.KVStats().WALAppends; got != appends+1 {
		t.Fatalf("Flush made %d WAL records, want 1", got-appends)
	}
	if r.Len() != 4 {
		t.Fatalf("the old snapshot moved: Len %d", r.Len())
	}
	r2 := ds.Snapshot()
	id := r2.Lookup(staged.S)
	if r2.Len() != 5 || id == store.NoID || id > r2.MaxID() {
		t.Fatalf("after Flush: Len %d, Lookup(new) %d, MaxID %d", r2.Len(), id, r2.MaxID())
	}
	if n := rows(); n != 3 {
		t.Fatalf("after Flush the query returned %d rows, want 3", n)
	}

	// Match and Cardinality are write-then-read
	mustInsert(t, ds, trs[4])
	if n := ds.Cardinality(store.Pattern{}); n != 6 {
		t.Fatalf("Cardinality = %d, want 6 with the staged insert", n)
	}
	mustInsert(t, ds, trs[5])
	n := 0
	ds.Match(store.Pattern{}, func(rdf.Triple) bool { n++; return true })
	if n != 7 {
		t.Fatalf("Match streamed %d triples, want 7 with the staged insert", n)
	}
}

// deletedSegmentFDs counts this process's descriptors on segment files
// under dir that have been unlinked: what a compaction retires and a
// snapshot still pins.
func deletedSegmentFDs(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".seg (deleted)") {
			n++
		}
	}
	return n
}

// TestQueriesReleaseTheirSnapshot: every way a query can end — Exec,
// Explain, ASK, a drained stream, a stream closed half way (pulled as
// Bindings or as positional rows), a stream closed before its first
// pull — gives the segment pins back then, not
// at some later garbage collection. The streams are opened first and a
// compaction retires the segments under them; with the collector off,
// the retired files must be closed the moment the last stream is.
func TestQueriesReleaseTheirSnapshot(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	// a one-byte memtable budget: every committed batch becomes a segment
	ds, err := disk.Open(dir, disk.Options{KV: kv.Options{NoSync: true, MemtableBytes: 1, MaxSegments: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	p := rdf.NewIRI("http://example.org/p")
	round := 0
	addSegment := func() {
		t.Helper()
		for i := 0; i < 20; i++ {
			mustInsert(t, ds, triple(rdf.NewIRI("http://example.org/s"+strings.Repeat("x", round)), p, rdf.NewInteger(int64(i))))
		}
		round++
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	addSegment()
	addSegment()

	const q = `SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`
	ctx := context.Background()
	var open []*sparql.RowSeq
	for i := 0; i < 4; i++ {
		rs, err := sparql.StreamExec(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, rs)
	}
	// two are held mid-stream inside nested ranges, one will be drained,
	// one is never ranged
	held := false
	for range open[0].Terms() {
		for range open[3].Terms() {
			held = true
			addSegment() // third segment: past MaxSegments, a compaction starts
			deadline := time.Now().Add(10 * time.Second)
			for ds.KVStats().Compactions == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no compaction: %+v", ds.KVStats())
				}
				time.Sleep(time.Millisecond)
			}
			if n := deletedSegmentFDs(t, dir); n == 0 {
				t.Fatal("the open streams pin no retired segment; the test observes nothing")
			}

			// queries that start and end after the compaction hold nothing over
			if _, err := sparql.Exec(ds, q); err != nil {
				t.Fatal(err)
			}
			if _, err := sparql.Exec(ds, `ASK { ?s <http://example.org/p> 3 }`); err != nil {
				t.Fatal(err)
			}
			if _, err := sparql.MustParse(q).Explain(ds); err != nil {
				t.Fatal(err)
			}
			break
		}
		break
	}
	if !held {
		t.Fatal("the held streams yielded no row")
	}
	if res, err := open[1].Collect(); err != nil || len(res.Rows) != 40 {
		t.Fatalf("drained stream: %v rows, err %v", res, err)
	}
	open[2].Close()
	if n := deletedSegmentFDs(t, dir); n != 0 {
		t.Fatalf("%d retired segment files still open after every query ended", n)
	}
}
