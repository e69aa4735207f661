package kv

import "runtime"

// Snapshots pin segment files via reference counts. Queries release
// theirs when they end, but ReaderAPI (the consumer one level up) does
// not oblige its holders to: a reader may simply be dropped. A finalizer
// backstops those, releasing the pins when the snapshot becomes garbage;
// explicit Release remains the prompt path and clears the finalizer.

func setSnapFinalizer(s *Snap) {
	runtime.SetFinalizer(s, func(sn *Snap) { sn.Release() })
}

func clearSnapFinalizer(s *Snap) {
	runtime.SetFinalizer(s, nil)
}
