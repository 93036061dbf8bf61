package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples is the second-highest
// sample, which is noise, not a tail.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report,
// highest first.
var tailLadder = []float64{99, 98, 95, 90, 80, 75}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPct returns the highest percentile on tailLadder with at least
// minBeyond of n samples above it. With too few samples for any of them
// it falls back to the median.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is a sorted sample set in milliseconds.
type dist []float64

// newDist copies and sorts samples.
func newDist(ms []float64) dist {
	d := slices.Clone(ms)
	slices.Sort(d)
	return d
}

// msOf converts durations to a sorted millisecond sample set.
func msOf(ds []time.Duration) dist {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return newDist(ms)
}

func (d dist) p50() float64 { return percentile(d, 50) }

// tail is the highest supported percentile up to p99.
func (d dist) tail() float64 { return percentile(d, tailPct(len(d))) }

// tailName names the percentile tail() reports, e.g. "p99".
func (d dist) tailName() string { return fmt.Sprintf("p%g", tailPct(len(d))) }

func (d dist) sum() float64 {
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return msOf(ds).p50() / 1000
}
