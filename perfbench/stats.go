package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p99 needs 1000.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, and whether the sample supports it: at least minBeyond
// samples must lie above it. xs is not modified.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), true
}

// median is the 0.5-quantile without the sample-size rule, for the handful
// of repetitions a run makes of a whole measurement (set-up, Fit).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// dist summarises one latency-like sample: its count and the percentiles
// the count supports.
type dist struct {
	N        int
	P50, P99 float64
	Has50    bool
	Has99    bool
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	d.P50, d.Has50 = quantile(xs, 0.5)
	d.P99, d.Has99 = quantile(xs, 0.99)
	return d
}
