package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. The traced run records
// spans from this package only, around its calls into each layer's public
// functions; tracing inside the program is a later change. Spans of one
// op share its Op id; Parent is the index of the enclosing span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Op     int    `json:"op"`
	child  int64  // ns covered by direct children
}

// tracer keeps spans in memory and writes them out at the end. The replay
// is single-goroutine, so the open-span stack needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.End - s.Start
	}
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// root opens an op's root span under a fresh op id.
func (t *tracer) root(name string) int {
	t.op++
	return t.begin(name)
}

func (s *span) dur() int64  { return s.End - s.Start }
func (s *span) self() int64 { return s.End - s.Start - s.child }

// layerStat aggregates one span name.
type layerStat struct {
	n           int
	total, self int64 // ns
}

func (l *layerStat) meanUS() float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.total) / float64(l.n) / 1e3
}

func (l *layerStat) selfMeanUS() float64 {
	if l == nil || l.n == 0 {
		return 0
	}
	return float64(l.self) / float64(l.n) / 1e3
}

func (t *tracer) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	for i := range t.spans {
		s := &t.spans[i]
		l := out[s.Name]
		if l == nil {
			l = &layerStat{}
			out[s.Name] = l
		}
		l.n++
		l.total += s.dur()
		l.self += s.self()
	}
	return out
}

// layerRow is one line of the printed layer table.
type layerRow struct {
	Layer      string  `json:"layer"`
	Spans      int     `json:"spans"`
	MeanUS     float64 `json:"mean_us"`
	SelfMeanUS float64 `json:"self_mean_us"`
	SelfShare  float64 `json:"self_share"` // of all traced time
}

func (t *tracer) table() []layerRow {
	st := t.stats()
	var all int64
	for _, l := range st {
		all += l.self
	}
	var rows []layerRow
	for name, l := range st {
		share := 0.0
		if all > 0 {
			share = float64(l.self) / float64(all)
		}
		rows = append(rows, layerRow{Layer: name, Spans: l.n, MeanUS: l.meanUS(), SelfMeanUS: l.selfMeanUS(), SelfShare: share})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfShare > rows[j].SelfShare })
	return rows
}

// spanOverheadNS measures what one empty span costs, so a reader can tell
// how much of a short layer's time is the tracer's own.
func spanOverheadNS() float64 {
	t := newTracer()
	const n = 20000
	t.spans = make([]span, 0, n+1)
	root := t.root("overhead")
	start := time.Now()
	for i := 0; i < n; i++ {
		t.in("empty", func() {})
	}
	d := time.Since(start)
	t.end(root)
	return float64(d) / n
}

// maxTraceSpans bounds the trace file; the statistics use every span.
const maxTraceSpans = 100000

func (t *tracer) write(path string) error {
	spans := t.spans
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	raw, err := json.Marshal(map[string]any{
		"note":  "spans recorded by bench/ around calls into each layer's public functions; self time = span minus direct children",
		"spans": spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
