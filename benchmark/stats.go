package main

import (
	"math"
	"sort"
)

// p90Floor is the smallest sample count at which a 90th percentile is
// reported: a percentile needs at least ten samples beyond it
// (choosing-metrics guide, section 1), and one tenth of a hundred is ten.
const p90Floor = 100

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between closest ranks, or NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// p90 returns the 90th percentile and whether the sample is large enough
// for it to be reported.
func p90(xs []float64) (float64, bool) {
	if len(xs) < p90Floor {
		return math.NaN(), false
	}
	return percentile(xs, 0.9), true
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the rule the acceptance check of the benchmark contract applies. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure the bounds are judged against. It is 0 for fewer
// than two samples (no spread can be known).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
