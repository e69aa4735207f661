package store

// CountProbes counts the dictionary probes (dict.find calls) made until
// the returned function is called, which removes the hook and reports
// the count.
func CountProbes() func() int {
	n := 0
	probeHook = func() { n++ }
	return func() int {
		probeHook = nil
		return n
	}
}
