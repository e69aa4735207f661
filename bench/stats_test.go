package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// A percentile is reported only when at least ten samples lie beyond it,
// on whichever side has fewer.
func TestPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 0, p: 50, ok: false},
		{n: 20, p: 50, want: 10, ok: false}, // 9 below the median
		{n: 21, p: 50, want: 11, ok: true},  // 10 below, 10 above
		{n: 199, p: 95, want: 190, ok: false},
		{n: 200, p: 95, want: 190, ok: true}, // exactly 10 above
		{n: 999, p: 99, want: 990, ok: false},
		{n: 1000, p: 99, want: 990, ok: true},
		{n: 1000, p: 99.9, want: 999, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestSampleWithholdsThinPercentiles(t *testing.T) {
	var s sample
	for _, v := range seq(50) {
		s.add(v)
	}
	if got, ok := s.pct(50); !ok || got != 25 {
		t.Errorf("p50 of 1..50 = %v, %v; want 25, reported", got, ok)
	}
	if _, ok := s.pct(95); ok {
		t.Error("p95 of 50 samples was reported; only 2 samples lie beyond it")
	}
	// a withheld percentile is null in the report, not a number
	r := metricDef{name: "x", unit: "ms", better: "lower"}.report(0, withheldWhy(&s, 95), s.n())
	if r.Value != nil || r.Withheld == "" {
		t.Errorf("withheld percentile reported as %+v", r)
	}
	if raw, _ := json.Marshal(r); !strings.Contains(string(raw), `"value":null`) {
		t.Errorf("withheld percentile marshals as %s, want a null value", raw)
	}
	if got := s.mean(); got != 25.5 {
		t.Errorf("mean = %v, want 25.5", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}
