package kv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// ingestKeys emits n keys k00000000 … in order, with the key reversed as
// the value, through one reused buffer: put must not keep it.
func ingestKeys(n int) func(put func(k, v []byte) error) error {
	return func(put func(k, v []byte) error) error {
		var k, v []byte
		for i := 0; i < n; i++ {
			k = fmt.Appendf(k[:0], "k%08d", i)
			v = append(v[:0], k...)
			slices.Reverse(v)
			if err := put(k, v); err != nil {
				return err
			}
		}
		return nil
	}
}

// dirFiles lists the files in dir other than the (empty) WAL.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.Name() != "wal.log" {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestIngestWritesOneCommittedSegment(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{BlockBytes: 512})
	const n = 5000
	if err := db.Ingest(ingestKeys(n)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WALAppends != 0 || st.WALBytes != 0 || st.Flushes != 0 || st.Segments != 1 || st.MemtableKeys != 0 {
		t.Fatalf("after Ingest: %d WAL appends (%d B), %d flushes, %d segments, %d memtable keys; want 0, 0, 0, 1, 0",
			st.WALAppends, st.WALBytes, st.Flushes, st.Segments, st.MemtableKeys)
	}
	check := func(db *DB) {
		t.Helper()
		wantGet(t, db, "k00000000", "00000000k", true)
		wantGet(t, db, "k00004999", "99940000k", true)
		wantGet(t, db, "k00005000", "", false)
		sn := db.Snapshot()
		defer sn.Release()
		if got := countKeys(sn, "", ""); got != n {
			t.Fatalf("scan finds %d keys, want %d", got, n)
		}
	}
	check(db)
	// writes after an ingest go the usual way, above the segment
	put(t, db, "k00000001", "new")
	wantGet(t, db, "k00000001", "new", true)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openT(t, dir, Options{})
	defer db.Close()
	wantGet(t, db, "k00000001", "new", true)
	put(t, db, "k00000001", "10000000k")
	check(db)
}

func TestIngestRefusesAndLeavesNothing(t *testing.T) {
	cases := []struct {
		name string
		emit func(put func(k, v []byte) error) error
	}{
		{"out of order", func(put func(k, v []byte) error) error {
			for _, k := range []string{"a", "c", "b"} {
				if err := put([]byte(k), nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{"duplicate", func(put func(k, v []byte) error) error {
			put([]byte("a"), nil)
			put([]byte("a"), nil) // its error is dropped here: Ingest still fails
			return nil
		}},
		{"emit fails", func(put func(k, v []byte) error) error {
			if err := ingestKeys(100)(put); err != nil {
				return err
			}
			return errors.New("the source scan failed")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openT(t, dir, Options{})
			defer db.Close()
			if err := db.Ingest(c.emit); err == nil {
				t.Fatal("Ingest succeeded")
			}
			if files := dirFiles(t, dir); len(files) != 0 {
				t.Fatalf("a failed Ingest left %v", files)
			}
			if st := db.Stats(); st.Segments != 0 {
				t.Fatalf("a failed Ingest left %d segments", st.Segments)
			}
			// the DB is still empty, so a good ingest goes through
			if err := db.Ingest(ingestKeys(10)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIngestRequiresAnEmptyDB(t *testing.T) {
	for _, flush := range []bool{false, true} {
		dir := t.TempDir()
		db := openT(t, dir, Options{NoSync: true})
		put(t, db, "a", "1")
		if flush {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		before := dirFiles(t, dir)
		if err := db.Ingest(ingestKeys(10)); err == nil {
			t.Fatalf("flushed=%v: Ingest into a DB holding a key succeeded", flush)
		}
		if after := dirFiles(t, dir); !slices.Equal(before, after) {
			t.Fatalf("flushed=%v: files %v became %v", flush, before, after)
		}
		wantGet(t, db, "a", "1", true)
		wantGet(t, db, "k00000000", "", false)
		db.Close()
	}
}

func TestIngestOfNothingCommitsNothing(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	defer db.Close()
	if err := db.Ingest(ingestKeys(0)); err != nil {
		t.Fatal(err)
	}
	if files := dirFiles(t, dir); len(files) != 0 {
		t.Fatalf("an empty Ingest left %v", files)
	}
}

// A crash while a manifest was being written leaves its temp file; Open
// clears it with the orphan segment.
func TestOpenClearsAnUncommittedManifest(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	db.Close()
	for _, name := range []string{"seg-000000.seg", ".tmp-123"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("cut short"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db = openT(t, dir, Options{})
	defer db.Close()
	if files := dirFiles(t, dir); len(files) != 0 {
		t.Fatalf("Open left %v", files)
	}
	if err := db.Ingest(ingestKeys(3)); err != nil {
		t.Fatal(err)
	}
}

// The segment is written under no lock: reads and writes go on while emit
// runs, readers see the DB empty until the commit, and a write that lands
// first makes the commit fail and the segment go.
func TestIngestBesideReadsAndWrites(t *testing.T) {
	for _, write := range []bool{false, true} {
		dir := t.TempDir()
		db := openT(t, dir, Options{NoSync: true})
		halfway, resume := make(chan struct{}), make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- db.Ingest(func(put func(k, v []byte) error) error {
				if err := ingestKeys(50)(put); err != nil {
					return err
				}
				close(halfway)
				<-resume
				return nil
			})
		}()
		<-halfway
		wantGet(t, db, "k00000000", "", false)
		if write {
			put(t, db, "a", "1")
		}
		close(resume)
		err := <-done
		if write != (err != nil) {
			t.Fatalf("write beside the ingest %v: Ingest returned %v", write, err)
		}
		if write {
			wantGet(t, db, "a", "1", true)
			wantGet(t, db, "k00000000", "", false)
			if files := dirFiles(t, dir); len(files) != 0 {
				t.Fatalf("an ingest that lost to a write left %v", files)
			}
		} else {
			wantGet(t, db, "k00000049", "94000000k", true)
		}
		db.Close()
	}
}
