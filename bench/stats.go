package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric's sample distribution as the -json report carries
// it: the median and both quartiles of the samples, and their count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the quartiles of xs (which it does not modify). The
// quartiles interpolate linearly at rank q·(n+1), the exclusive method of
// Python's statistics.quantiles, so the pipeline's spread rule reads the
// same numbers from the -json file as it computes from the JSON result
// lines. An empty sample summarizes to NaN.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return summary{Median: nan, Q1: nan, Q3: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: rank(s, 0.5), Q1: rank(s, 0.25), Q3: rank(s, 0.75)}
}

// rank interpolates the sorted sample s at quantile q (exclusive method,
// clamped to the sample range).
func rank(s []float64, q float64) float64 {
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ints converts counts to float samples.
func ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// scaled converts durations to float samples in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// timeMedian runs f reps times and returns the median wall time in unit.
func timeMedian(reps int, unit time.Duration, f func()) float64 {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	return median(scaled(ds, unit))
}
