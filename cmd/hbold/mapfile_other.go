//go:build !unix

package main

import "os"

// mapFile reads the file at path onto the heap: builds for systems
// other than unix map nothing, so release has nothing to do.
func mapFile(path string) (string, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	doc, err := readString(f)
	return doc, func() {}, err
}
