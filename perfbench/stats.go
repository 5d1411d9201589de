package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must leave
// above it: fewer and the "tail" is one or two unlucky samples.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even n),
// or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder are the percentiles a tail may be reported at, highest first.
// A fixed ladder keeps the reported percentile the same from run to run
// when the sample count moves a little.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest ladder percentile that still has at least
// minBeyond samples above its nearest-rank position, with that percentile.
// When no ladder percentile qualifies ok is false and the median stands
// in, which callers say.
func tail(xs []float64) (value, pct float64, ok bool) {
	pct, ok = tailPct(len(xs))
	if !ok {
		return median(xs), 50, false
	}
	return quantile(xs, pct), pct, true
}

// tailPct is the highest ladder percentile that leaves at least minBeyond
// of n samples beyond its nearest rank.
func tailPct(n int) (float64, bool) {
	for _, p := range tailLadder {
		if rank := nearestRank(p, n); rank >= 1 && n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quantile is the nearest-rank p-th percentile of xs (len(xs) > 0).
func quantile(xs []float64, p float64) float64 {
	return sorted(xs)[max(nearestRank(p, len(xs)), 1)-1]
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
func nearestRank(p float64, n int) int {
	// The small epsilon keeps p*n that is whole in exact arithmetic from
	// rounding up past itself (99.9/100*10000 is 9990.000000000002).
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
