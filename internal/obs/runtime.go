package obs

import "runtime/metrics"

// RegisterRuntime puts the Go runtime's own state on r: goroutines, live
// heap bytes and the share of the process's CPU time the garbage
// collector has taken since start. Each is read from runtime/metrics when
// a scrape asks for it, so nothing on a request path changes.
func RegisterRuntime(r *Registry) {
	r.GaugeFunc("hbold_go_goroutines", "Goroutines that currently exist.",
		func() float64 { return readRuntime("/sched/goroutines:goroutines") })
	r.GaugeFunc("hbold_go_heap_live_bytes", "Heap bytes the last garbage collection marked live.",
		func() float64 { return readRuntime("/gc/heap/live:bytes") })
	r.GaugeFunc("hbold_go_gc_cpu_fraction", "Share of the process's CPU time spent in the garbage collector since start.",
		func() float64 {
			gc, total := readRuntime("/cpu/classes/gc/total:cpu-seconds"), readRuntime("/cpu/classes/total:cpu-seconds")
			if total <= 0 {
				return 0
			}
			return gc / total
		})
}

// readRuntime reads one runtime/metrics sample as a float; 0 for a name
// this runtime does not know.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
