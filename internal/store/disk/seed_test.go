package disk_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// seedCorpus is the fixed corpus the seed tests copy: big enough that the
// per-key seed it replaced committed several WAL batches and flushed
// several segments.
func seedCorpus() *store.Store {
	return withLongTerms(synth.Generate(synth.Spec{
		Name: "seed", Classes: 12, Instances: 4000, ObjectProps: 10,
		DataProps: 8, LinkFactor: 2, CommunitySeeds: 3, Seed: 36,
	}))
}

// withLongTerms adds triples whose terms encode to more than 64 bytes, so
// the reverse dictionary has hashed keys as well as inline ones.
func withLongTerms(st *store.Store) *store.Store {
	long := strings.Repeat("a long value that the dictionary has to hash ", 3)
	for i := 0; i < 20; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://example.org/a/rather/long/path/to/a/resource/that/goes/on/%d", i))
		st.Add(rdf.NewTriple(s, rdf.NewIRI("http://example.org/p"), rdf.NewLiteral(fmt.Sprintf("%s%d", long, i%7))))
	}
	st.Flush()
	return st
}

// A seed is one ingested segment: no WAL record, no memtable flush, no
// compaction. The per-key seed of the 152,708-triple benchmark corpus
// made 18 WAL appends (11,056,468 B) and 6 segments.
func TestCopyFromIngestsOneSegment(t *testing.T) {
	mem := seedCorpus()
	ds := openT(t, t.TempDir())
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	st := ds.KVStats()
	t.Logf("seed of %d triples, %d terms: %d WAL appends (%d B), %d flushes, %d compactions, %d segments (%d B)",
		mem.Len(), mem.TermCount(), st.WALAppends, st.WALBytes, st.Flushes, st.Compactions, st.Segments, st.SegmentBytes)
	if st.WALAppends != 0 || st.Segments != 1 || st.Compactions != 0 {
		t.Errorf("the seed made %d WAL appends, %d segments and %d compactions; want 0, 1 and 0",
			st.WALAppends, st.Segments, st.Compactions)
	}
	checkWhole(t, ds, mem.Reader())
}

// checkWhole verifies that ds holds exactly what src holds: the same
// term for every ID (and the same ID for every term), the same triples
// in every permutation and the same statistics.
func checkWhole(t *testing.T, ds *disk.Store, src *store.Reader) {
	t.Helper()
	r := ds.Snapshot().(*disk.Reader)
	defer r.Release()
	if r.MaxID() != src.MaxID() || r.Len() != src.Len() || ds.Len() != src.Len() {
		t.Fatalf("MaxID %d, Len %d (store %d); the source has %d, %d", r.MaxID(), r.Len(), ds.Len(), src.MaxID(), src.Len())
	}
	for id := store.ID(1); id <= src.MaxID(); id++ {
		term := src.Term(id)
		if r.Term(id) != term || r.Lookup(term) != id {
			t.Fatalf("ID %d: Term %v, Lookup %d; the source has %v", id, r.Term(id), r.Lookup(term), term)
		}
	}
	if r.DistinctSubjects() != src.DistinctSubjects() || r.DistinctPredicates() != src.DistinctPredicates() ||
		r.DistinctObjects() != src.DistinctObjects() {
		t.Fatalf("distinct counts (%d, %d, %d); the source has (%d, %d, %d)",
			r.DistinctSubjects(), r.DistinctPredicates(), r.DistinctObjects(),
			src.DistinctSubjects(), src.DistinctPredicates(), src.DistinctObjects())
	}
	for id := store.ID(1); id <= src.MaxID(); id++ {
		if r.PredCount(id) != src.PredCount(id) {
			t.Fatalf("PredCount(%d) = %d; the source has %d", id, r.PredCount(id), src.PredCount(id))
		}
		for _, pat := range []store.IDPattern{{S: id}, {P: id}, {O: id}} {
			if got, want := scan(r, pat), scan(src, pat); !slices.Equal(got, want) {
				t.Fatalf("%+v: %d triples; the source has %d", pat, len(got), len(want))
			}
		}
	}
	if got, want := scan(r, store.IDPattern{}), scan(src, store.IDPattern{}); !slices.Equal(got, want) {
		t.Fatalf("full scan: %d triples; the source has %d", len(got), len(want))
	}
}

func scan(r store.ReaderAPI, pat store.IDPattern) [][3]store.ID {
	var out [][3]store.ID
	store.EachTriple(r, pat, func(s, p, o store.ID) bool {
		out = append(out, [3]store.ID{s, p, o})
		return true
	})
	return out
}

// TestSeedIsAtomic cuts a seed at each step of its commit — the segment
// write, the segment fsync, the manifest's temp-file write and its rename
// — by rebuilding the files a crash at that point leaves from those of a
// finished seed. Every reopen must find the store empty, with the orphan
// files gone and room for a fresh seed, or the whole corpus; never a part.
func TestSeedIsAtomic(t *testing.T) {
	mem := withLongTerms(synth.Generate(synth.Spec{
		Name: "crash", Classes: 6, Instances: 600, ObjectProps: 5,
		DataProps: 4, LinkFactor: 2, Seed: 7,
	}))
	src := t.TempDir()
	ds := openT(t, src)
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(src, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("the seed left %d segment files, want 1", len(segs))
	}
	segName := filepath.Base(segs[0])
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}

	type cut struct {
		name     string
		seg      []byte
		tmp      []byte // the manifest's temp file, if the crash left one
		renamed  bool
		wantFull bool
	}
	var cuts []cut
	// down to the block data alone (the footer is 36 bytes) and one byte short
	for _, n := range []int{0, 1, len(seg) / 2, len(seg) - 36, len(seg) - 1} {
		cuts = append(cuts, cut{name: "segment write", seg: seg[:n]})
	}
	cuts = append(cuts, cut{name: "segment fsync", seg: seg})
	for _, n := range []int{0, len(manifest) / 2, len(manifest)} {
		cuts = append(cuts, cut{name: "manifest temp write", seg: seg, tmp: manifest[:n]})
	}
	cuts = append(cuts, cut{name: "rename", seg: seg, renamed: true, wantFull: true})

	for _, c := range cuts {
		dir := t.TempDir()
		write := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("wal.log", nil)
		write(segName, c.seg)
		if c.tmp != nil {
			write(".tmp-4242", c.tmp)
		}
		if c.renamed {
			write("MANIFEST.json", manifest)
		}
		ds := openT(t, dir)
		if c.wantFull {
			checkWhole(t, ds, mem.Reader())
			ds.Close()
			continue
		}
		if !ds.Empty() || ds.Len() != 0 {
			t.Fatalf("%s cut at %d bytes: reopened with %d triples, want an empty store", c.name, len(c.seg), ds.Len())
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*seg*")); len(left) != 0 {
			t.Fatalf("%s: the orphan segment survived the reopen: %v", c.name, left)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
			t.Fatalf("%s: the uncommitted manifest survived the reopen: %v", c.name, left)
		}
		// an empty store is what `hbold sparqld -data-dir` seeds again
		if err := ds.CopyFrom(mem.Reader()); err != nil {
			t.Fatalf("%s: re-seeding: %v", c.name, err)
		}
		checkWhole(t, ds, mem.Reader())
		ds.Close()
	}
}

// A seed of a source whose scan and count disagree fails, and leaves the
// store empty.
func TestCopyFromRefusesAnInconsistentSource(t *testing.T) {
	mem := store.New()
	mem.Add(rdf.Triple{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("o")})
	ds := openT(t, t.TempDir())
	defer ds.Close()
	if err := ds.CopyFrom(lying{mem.Reader()}); err == nil {
		t.Fatal("CopyFrom accepted a source whose Len disagrees with its scan")
	}
	if ds.Len() != 0 || ds.KVStats().Segments != 0 {
		t.Fatalf("a failed seed left %d triples in %d segments", ds.Len(), ds.KVStats().Segments)
	}
}

type lying struct{ *store.Reader }

func (l lying) Len() int { return l.Reader.Len() + 1 }
