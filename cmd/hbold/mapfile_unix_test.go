//go:build unix

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"

	"repro/internal/store"
	"repro/internal/turtle"
)

// mappedDoc is a document of distinct terms of every shape the store
// copies strings from: IRIs, blank nodes, and literals with a language
// tag, a datatype or an escape.
func mappedDoc(size int) string {
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/p%d> \"v%d\"@en-GB .\n", i, i%7, i)
		fmt.Fprintf(&b, "_:b%d <http://ex/n> \"%d\"^^<http://ex/dt%d> .\n", i, i, i%5)
		fmt.Fprintf(&b, "<http://ex/s%d> <http://ex/q> \"line\\n%d\" .\n", i, i)
	}
	return b.String()
}

// TestMappedLoadCopiesNothing: the load maps its file, so the document
// is never copied onto the heap, and the store it builds holds no byte of
// the mapping: once loadTurtle has unmapped the file, every term still
// reads back whole. A read of an unmapped page faults, and SetPanicOnFault
// turns the fault into a failure of this test.
func TestMappedLoadCopiesNothing(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	want := mappedDoc(4 << 20)
	path := filepath.Join(t.TempDir(), "doc.nt")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, release, err := mapFile(path)
	runtime.ReadMemStats(&m1)
	if err != nil || got != want {
		t.Fatalf("mapFile: %d bytes (%v), want the file's %d", len(got), err, len(want))
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("mapping a %d-byte file allocated %d bytes of heap", len(want), alloc)
	if alloc > uint64(len(want))/64 {
		t.Errorf("mapping a %d-byte file allocated %d bytes of heap; want far below its size", len(want), alloc)
	}
	release()
	if !faults(func() { sink = got[len(got)/2] }) {
		t.Fatal("the document still reads after release: the file was not unmapped")
	}

	ref := store.NewBuilder()
	if err := turtle.Each(want, ref.Add); err != nil {
		t.Fatal(err)
	}
	r, wr := loadTurtle(path).Reader(), ref.Store().Reader()
	if r.Len() != wr.Len() || r.MaxID() != wr.MaxID() {
		t.Fatalf("mapped load: %d triples, %d terms; want %d, %d", r.Len(), r.MaxID(), wr.Len(), wr.MaxID())
	}
	for id := store.ID(1); id <= r.MaxID(); id++ {
		var same bool
		if faults(func() { same = r.Term(id) == wr.Term(id) }) {
			t.Fatalf("term %d points into the unmapped file", id)
		}
		if !same {
			t.Fatalf("term %d = %v, want %v", id, r.Term(id), wr.Term(id))
		}
	}
}

var sink byte

// faults reports whether fn faulted on a memory access; the caller has
// turned SetPanicOnFault on.
func faults(fn func()) (faulted bool) {
	defer func() {
		if e := recover(); e != nil {
			// a fault panics with the address it faulted at
			if _, ok := e.(interface{ Addr() uintptr }); !ok {
				panic(e)
			}
			faulted = true
		}
	}()
	fn()
	return false
}

// TestMapFileReadsWhatItCannotMap: an empty file and a named pipe cannot
// be mapped, so they are read as before.
func TestMapFileReadsWhatItCannotMap(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.nt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if doc, release, err := mapFile(empty); err != nil || doc != "" {
		t.Fatalf("empty file: %q, %v", doc, err)
	} else {
		release()
	}
	if st := loadTurtle(empty); st.Len() != 0 {
		t.Fatalf("an empty file loads %d triples", st.Len())
	}

	fifo := filepath.Join(dir, "doc.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("no named pipes here: %v", err)
	}
	want := mappedDoc(64 << 10)
	wrote := make(chan error, 1)
	go func() { wrote <- os.WriteFile(fifo, []byte(want), 0o600) }()
	doc, release, err := mapFile(fifo)
	if err != nil || doc != want {
		t.Fatalf("named pipe: %d bytes (%v), want %d", len(doc), err, len(want))
	}
	release()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}
