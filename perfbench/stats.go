package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A timing's tail is the highest rung that leaves at least
// minBeyond samples above it, so the reported tail is never decided by a
// handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

const minBeyond = 10

// rank is the nearest-rank position (1-based) of percentile p in n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps rounding error in p/100*n from pushing an exact
	// rank (p99.9 of 10000 is 9990) up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the tail rung for n samples; ok is false when
// even the lowest rung has fewer than minBeyond samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs, which must be
// sorted ascending; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// dist is a sorted sample set of one timing, in milliseconds.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) p50() float64         { return percentile(d, 50) }
func (d dist) at(p float64) float64 { return percentile(d, p) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return newDist(xs).p50() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
