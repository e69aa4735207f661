package disk_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
)

// Crash-recovery differential: commit a sequence of batches, then
// simulate a writer killed mid-append by truncating the WAL at assorted
// offsets — record boundaries, one byte either side, and seeded random
// cuts. Every reopened copy must contain exactly a prefix of the
// committed batches, with the dictionary, all three permutations and
// the meta counters mutually consistent: no torn triples.

const (
	crashBatches    = 24
	triplesPerBatch = 8
)

// crashBatch returns the deterministic triples of batch i. Batches share
// predicates and a hub subject so later batches reference dictionary
// entries committed by earlier ones.
func crashBatch(i int) []rdf.Triple {
	p := rdf.NewIRI(fmt.Sprintf("http://example.org/p/%d", i%3))
	hub := rdf.NewIRI("http://example.org/hub")
	out := make([]rdf.Triple, 0, triplesPerBatch)
	for j := 0; j < triplesPerBatch-1; j++ {
		s := rdf.NewIRI(fmt.Sprintf("http://example.org/s/%02d/%d", i, j))
		o := rdf.NewLiteral(fmt.Sprintf("v-%02d-%d", i, j))
		out = append(out, rdf.Triple{S: s, P: p, O: o})
	}
	out = append(out, rdf.Triple{
		S: hub,
		P: rdf.NewIRI("http://example.org/linked"),
		O: rdf.NewIRI(fmt.Sprintf("http://example.org/s/%02d/0", i)),
	})
	return out
}

func tripleKeyStr(tr rdf.Triple) string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String()
}

// cumulative[k] is the triple set after the first k batches.
func cumulativeSets() []map[string]rdf.Triple {
	sets := make([]map[string]rdf.Triple, crashBatches+1)
	sets[0] = map[string]rdf.Triple{}
	for i := 0; i < crashBatches; i++ {
		next := map[string]rdf.Triple{}
		for k, tr := range sets[i] {
			next[k] = tr
		}
		for _, tr := range crashBatch(i) {
			next[tripleKeyStr(tr)] = tr
		}
		sets[i+1] = next
	}
	return sets
}

// writeCrashCorpus populates dir with crashBatches flushes, one WAL
// record per batch, and returns with the store closed.
func writeCrashCorpus(t *testing.T, dir string, opts disk.Options) {
	t.Helper()
	ds, err := disk.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashBatches; i++ {
		for _, tr := range crashBatch(i) {
			if _, err := ds.Insert(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// walBoundaries parses the framed log and returns the end offset of each
// intact record, in order.
func walBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	off := int64(0)
	for int64(len(raw))-off >= 8 {
		n := int64(binary.BigEndian.Uint32(raw[off : off+4]))
		if off+8+n > int64(len(raw)) {
			break
		}
		off += 8 + n
		bounds = append(bounds, off)
	}
	return bounds
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkRecovered opens the truncated copy and verifies the prefix
// property plus full internal consistency, returning the number of
// batches the store recovered to.
func checkRecovered(t *testing.T, dir string, sets []map[string]rdf.Triple) int {
	t.Helper()
	ds, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer ds.Close()
	r := ds.Snapshot()

	// Walk the SPO permutation, materializing every term; a torn
	// dictionary entry would panic inside Term.
	type idTriple struct{ s, p, o store.ID }
	var ids []idTriple
	got := map[string]bool{}
	r.MatchIDs(store.IDPattern{}, func(s, p, o store.ID) bool {
		ids = append(ids, idTriple{s, p, o})
		got[tripleKeyStr(rdf.Triple{S: r.Term(s), P: r.Term(p), O: r.Term(o)})] = true
		return true
	})
	if len(got) != len(ids) {
		t.Fatalf("SPO scan yielded %d keys but %d distinct triples", len(ids), len(got))
	}

	// The recovered set must be exactly sets[k] for some k.
	k := -1
	for i, set := range sets {
		if len(set) != len(got) {
			continue
		}
		match := true
		for key := range set {
			if !got[key] {
				match = false
				break
			}
		}
		if match {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatalf("recovered state (%d triples) is not a prefix of the committed batches", len(got))
	}

	// Permutation integrity: the POS and OSP walks enumerate the same
	// triple set as SPO.
	distinctP, distinctO := map[store.ID]bool{}, map[store.ID]bool{}
	predCount := map[store.ID]int{}
	for _, tr := range ids {
		distinctP[tr.p] = true
		distinctO[tr.o] = true
		predCount[tr.p]++
	}
	fromPOS, fromOSP := map[idTriple]bool{}, map[idTriple]bool{}
	for p := range distinctP {
		r.MatchIDs(store.IDPattern{P: p}, func(s, pp, o store.ID) bool {
			fromPOS[idTriple{s, pp, o}] = true
			return true
		})
	}
	for o := range distinctO {
		r.MatchIDs(store.IDPattern{O: o}, func(s, p, oo store.ID) bool {
			fromOSP[idTriple{s, p, oo}] = true
			return true
		})
	}
	if len(fromPOS) != len(ids) || len(fromOSP) != len(ids) {
		t.Fatalf("permutations torn: SPO %d, POS %d, OSP %d triples", len(ids), len(fromPOS), len(fromOSP))
	}
	for _, tr := range ids {
		if !fromPOS[tr] || !fromOSP[tr] {
			t.Fatalf("triple %v missing from a permutation", tr)
		}
	}

	// Meta counters must agree with the recovered keys.
	if r.Len() != len(ids) || r.CardinalityIDs(store.IDPattern{}) != len(ids) {
		t.Fatalf("Len %d / full cardinality %d, want %d", r.Len(), r.CardinalityIDs(store.IDPattern{}), len(ids))
	}
	for p, n := range predCount {
		if got := r.CardinalityIDs(store.IDPattern{P: p}); got != n {
			t.Fatalf("CardinalityIDs(? %d ?) = %d, keys say %d", p, got, n)
		}
	}

	// Every class the batches ever typed counts as the model does after
	// k batches: 0 once its last instance is deleted or retyped.
	classCount := map[rdf.Term]int{}
	for _, set := range sets {
		for _, tr := range set {
			if tr.P == rdfType {
				classCount[tr.O] = 0
			}
		}
	}
	for _, tr := range sets[k] {
		if tr.P == rdfType {
			classCount[tr.O]++
		}
	}
	typ := r.Lookup(rdfType)
	for c, n := range classCount {
		got := 0
		if id := r.Lookup(c); typ != store.NoID && id != store.NoID {
			got = r.CardinalityIDs(store.IDPattern{P: typ, O: id})
		}
		if got != n {
			t.Fatalf("CardinalityIDs(? rdf:type %s) = %d, the model says %d", c, got, n)
		}
	}

	// The recovered store must keep accepting writes.
	fresh, err := ds.Insert(rdf.Triple{
		S: rdf.NewIRI("http://example.org/post-crash"),
		P: rdf.NewIRI("http://example.org/p/0"),
		O: rdf.NewLiteral("alive"),
	})
	if err != nil || !fresh {
		t.Fatalf("post-recovery insert: fresh=%v err=%v", fresh, err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatalf("post-recovery flush: %v", err)
	}
	return k
}

// TestCrashRecoveryWALOffsets keeps the whole corpus in the WAL (default
// memtable threshold) so the recovery point is exactly predictable from
// the truncation offset.
func TestCrashRecoveryWALOffsets(t *testing.T) {
	src := t.TempDir()
	writeCrashCorpus(t, src, disk.Options{})
	sets := cumulativeSets()
	walPath := filepath.Join(src, "wal.log")
	bounds := walBoundaries(t, walPath)
	if len(bounds) != crashBatches {
		t.Fatalf("WAL holds %d records, want %d (one per batch)", len(bounds), crashBatches)
	}
	size := bounds[len(bounds)-1]

	var offsets []int64
	for _, b := range bounds {
		offsets = append(offsets, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 16; i++ {
		offsets = append(offsets, rng.Int63n(size+1))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	for _, off := range offsets {
		if off < 0 || off > size {
			continue
		}
		wantK := sort.Search(len(bounds), func(i int) bool { return bounds[i] > off })
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), off); err != nil {
			t.Fatal(err)
		}
		if gotK := checkRecovered(t, dir, sets); gotK != wantK {
			t.Fatalf("truncate at %d: recovered %d batches, want %d", off, gotK, wantK)
		}
	}
}

// TestCrashRecoveryCorruptTail flips bytes inside the last record rather
// than truncating: the CRC must reject it and recovery lands one batch
// earlier.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	src := t.TempDir()
	writeCrashCorpus(t, src, disk.Options{})
	sets := cumulativeSets()
	bounds := walBoundaries(t, filepath.Join(src, "wal.log"))
	dir := copyDir(t, src)
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of the final record (past its 8B header).
	raw[bounds[len(bounds)-2]+8+3] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if gotK := checkRecovered(t, dir, sets); gotK != crashBatches-1 {
		t.Fatalf("corrupt tail: recovered %d batches, want %d", gotK, crashBatches-1)
	}
}

// TestCrashRecoveryWithSegments runs the same cuts with a tiny memtable,
// so part of the corpus lives in committed segments and only the tail is
// in the WAL. The exact recovery point depends on flush timing; the
// invariant is the prefix property and internal consistency, plus that
// everything already in segments survives.
func TestCrashRecoveryWithSegments(t *testing.T) {
	src := t.TempDir()
	opts := disk.Options{}
	opts.KV.MemtableBytes = 1 << 11
	opts.KV.MaxSegments = 3
	writeCrashCorpus(t, src, opts)
	sets := cumulativeSets()
	walPath := filepath.Join(src, "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// With the tail in the WAL and the rest in segments, cutting the
	// whole WAL must still leave every segment-resident batch.
	floorK := -1
	{
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), 0); err != nil {
			t.Fatal(err)
		}
		floorK = checkRecovered(t, dir, sets)
	}
	if floorK < 1 {
		t.Fatalf("no batches survived in segments (floor %d); memtable threshold too large?", floorK)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		off := rng.Int63n(info.Size() + 1)
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, "wal.log"), off); err != nil {
			t.Fatal(err)
		}
		if gotK := checkRecovered(t, dir, sets); gotK < floorK {
			t.Fatalf("truncate at %d: recovered %d batches, below segment floor %d", off, gotK, floorK)
		}
	}
}
