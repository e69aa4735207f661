package kv

import (
	"encoding/binary"
	"testing"
)

// The layer benchmarks: the disk store's key shapes (a table byte and
// three big-endian uint32 IDs, empty values) over six segments plus a
// memtable — the state `sparql_disk_rw` reads. BenchmarkProbe and
// BenchmarkGetAbsent are what a join probe and a dictionary intern
// cost; BenchmarkScanSequential is the side that must not pay for them.

const (
	benchSubjects = 30000
	benchPerSubj  = 6
)

func benchKey(table byte, a, b, c uint32) string {
	k := make([]byte, 13)
	k[0] = table
	binary.BigEndian.PutUint32(k[1:], a)
	binary.BigEndian.PutUint32(k[5:], b)
	binary.BigEndian.PutUint32(k[9:], c)
	return string(k)
}

// benchDB holds benchSubjects subjects of benchPerSubj keys each, in two
// tables, dealt round-robin over six segments and a memtable.
func benchDB(b testing.TB) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Options{NoSync: true, MemtableBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for part := uint32(0); part < 7; part++ {
		var batch Batch
		for s := part; s < benchSubjects; s += 7 {
			for p := uint32(0); p < benchPerSubj; p++ {
				batch.Put(benchKey('s', s, p, 2*s), nil)
				batch.Put(benchKey('p', p, 2*s, s), nil)
			}
		}
		if err := db.Apply(&batch); err != nil {
			b.Fatal(err)
		}
		if part < 6 {
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if st := db.Stats(); st.Segments != 6 || st.MemtableKeys == 0 {
		b.Fatalf("want six segments and a memtable, got %+v", st)
	}
	return db
}

var benchSink int

// BenchmarkProbe is one join probe: every key of one subject.
func BenchmarkProbe(b *testing.B) {
	db := benchDB(b)
	sn := db.Snapshot()
	defer sn.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := uint32(i*7919) % benchSubjects
		prefix := benchKey('s', s, 0, 0)[:5]
		n := 0
		sn.Scan(prefix, PrefixEnd(prefix), func(string, []byte) bool { n++; return true })
		if n != benchPerSubj {
			b.Fatalf("subject %d: %d keys, want %d", s, n, benchPerSubj)
		}
		benchSink += n
	}
}

// ascendingProbes returns the key range of every third subject, in
// ascending order: the probes a join makes, built ahead of time so that
// what is measured is the cursor.
func ascendingProbes() (prefixes, ends []string) {
	for s := uint32(0); s < benchSubjects; s += 3 {
		prefix := benchKey('s', s, 0, 0)[:5]
		prefixes = append(prefixes, prefix)
		ends = append(ends, PrefixEnd(prefix))
	}
	return prefixes, ends
}

// probe reads every key of one subject on a standing cursor.
func probe(tb testing.TB, it *Iter, prefix, end string) {
	n := 0
	for it.Seek(prefix); it.Valid() && it.Key() < end; it.Next() {
		n++
	}
	if n != benchPerSubj {
		tb.Fatalf("prefix %x: %d keys, want %d", prefix, n, benchPerSubj)
	}
	benchSink += n
}

// BenchmarkProbeAscending is the probe a join makes: BenchmarkProbe's
// keys, subjects in ascending order (wrapping round), on one cursor that
// stays standing between probes.
func BenchmarkProbeAscending(b *testing.B) {
	db := benchDB(b)
	sn := db.Snapshot()
	defer sn.Release()
	it := sn.Iter()
	prefixes, ends := ascendingProbes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe(b, it, prefixes[i%len(prefixes)], ends[i%len(prefixes)])
	}
}

// BenchmarkGetAbsent is the intern path of an update: a key that sorts
// inside every segment's range and that none of them holds.
func BenchmarkGetAbsent(b *testing.B) {
	db := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := uint32(i*7919) % benchSubjects
		if _, ok := db.Get(benchKey('s', s, 1, 2*s+1)); ok {
			b.Fatal("absent key found")
		}
	}
}

// BenchmarkScanSequential is one pass over a whole table.
func BenchmarkScanSequential(b *testing.B) {
	db := benchDB(b)
	sn := db.Snapshot()
	defer sn.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		sn.Scan("p", PrefixEnd("p"), func(string, []byte) bool { n++; return true })
		if n != benchSubjects*benchPerSubj {
			b.Fatalf("scanned %d keys, want %d", n, benchSubjects*benchPerSubj)
		}
		benchSink += n
	}
}
