package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond it
// (at either end: a median of 12 samples has only 6 above it and is not
// reported either). sorted must be ascending.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // the epsilon keeps 99.9 % of 1000 at rank 999
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	if below := rank - 1; below < beyond {
		beyond = below
	}
	return sorted[rank-1], beyond >= minBeyond
}

// sample is one timed class of operations.
type sample struct {
	vals   []float64 // milliseconds
	sorted bool
}

func (s *sample) add(ms float64) {
	s.vals = append(s.vals, ms)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// pct returns the percentile and whether the ten-beyond rule lets it be
// reported. A withheld percentile has no value: callers report it as
// null, never as a number a reader could take for a measurement.
func (s *sample) pct(p float64) (float64, bool) {
	s.sort()
	return percentile(s.vals, p)
}

// show formats a percentile for the terminal table: "-" when withheld.
func (s *sample) show(p float64) string {
	if v, ok := s.pct(p); ok {
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
	return "-"
}

// withheldWhy words the reason a percentile of s is not reported.
func withheldWhy(s *sample, p float64) string {
	return fmt.Sprintf("%d samples: fewer than %d lie beyond p%v", s.n(), minBeyond, p)
}

func (s *sample) mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

func (s *sample) merge(o *sample) {
	s.vals = append(s.vals, o.vals...)
	s.sorted = false
}

// median of a small slice (setup repeats); 0 for an empty one.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
