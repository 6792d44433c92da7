package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.75)
}

// relDiff is |b-a| as a share of a, the A/A comparison measure.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return math.Abs(b)
	}
	return math.Abs(b-a) / math.Abs(a)
}
