package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" definition, R type 7).
// xs is not modified.  An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// highPercentile returns the highest of p90, p75 and p50 that still has at
// least ten samples above it, and which one it used, so a tail figure is
// never read off a handful of samples.  Samples too few for even p50 yield
// the median with q = 0.5.
func highPercentile(xs []float64) (value, q float64) {
	for _, q := range []float64{0.90, 0.75} {
		if float64(len(xs))*(1-q) >= 10-1e-9 {
			return quantile(xs, q), q
		}
	}
	return median(xs), 0.5
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by the intervals, counting
// overlapping stretches once.  ivs is sorted in place.
func unionLength(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if !open || iv.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv.lo, iv.hi, true
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
