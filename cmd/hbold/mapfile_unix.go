//go:build unix

package main

import (
	"os"
	"syscall"
	"unsafe"
)

// mapFile returns the file at path as a string, and a function that
// releases it. A regular file that is not empty is mapped read-only: the
// string is the file's pages, and nothing is copied onto the heap. Once
// release has run, the string must not be read again. Anything else (an
// empty file, a pipe, a file the kernel will not map) is read onto the
// heap by readString, and release does nothing.
func mapFile(path string) (string, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() > 0 && int64(int(fi.Size())) == fi.Size() {
		b, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
		if err == nil {
			return unsafe.String(&b[0], len(b)), func() { syscall.Munmap(b) }, nil
		}
	}
	doc, err := readString(f)
	return doc, func() {}, err
}
