package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. Zero for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of xs (sorted in place); the mean of the two middle values for an
// even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the exclusive
// method of Python's statistics.quantiles(xs, n=4), which is how run-to-run
// spread is judged. With fewer than two values both quartiles equal the
// only value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := j * (n + 1) // position (j/4)*(n+1), scaled by 4
		i, frac := m/4, float64(m%4)/4
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(append([]float64(nil), xs...))
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// latencies collects virtual-time samples.
type latencies []time.Duration

// quantileUS returns the nearest-rank q-quantile in microseconds.
func (l latencies) quantileUS(q float64) float64 {
	xs := make([]float64, len(l))
	for i, d := range l {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return percentile(xs, q)
}

// quantileMS returns the nearest-rank q-quantile in milliseconds.
func (l latencies) quantileMS(q float64) float64 { return l.quantileUS(q) / 1e3 }

// sum is an exact fingerprint of the samples for determinism checks.
func (l latencies) sum() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}
