package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestP90OnlyFromAHundredSamples(t *testing.T) {
	if _, ok := p90(seq(p90Floor - 1)); ok {
		t.Errorf("p90 reported for %d samples: fewer than ten lie beyond it", p90Floor-1)
	}
	v, ok := p90(seq(p90Floor))
	if !ok {
		t.Fatalf("p90 withheld for %d samples", p90Floor)
	}
	if want := 90.1; math.Abs(v-want) > 1e-9 {
		t.Errorf("p90 of 1…100 = %v, want %v", v, want)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, so that a missing sample cannot pass for a number")
	}
}

// The contract's acceptance check takes quartiles with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{[]float64{10, 12}, 9.5, 12.5},
		{[]float64{11.6, 12.0, 11.8, 11.7, 12.4, 11.9, 11.75, 11.85, 12.1, 11.65}, 11.6875, 12.025},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
	if got, want := spread(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread(1…10) = %v, want %v", got, want)
	}
}
