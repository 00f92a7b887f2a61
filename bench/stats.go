package main

import (
	"math"
	"sort"
)

// samples is a set of timings in nanoseconds.
type samples []int64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// appendOver appends more, each divided by a slowdown.
func (s samples) appendOver(more samples, slowdown float64) samples {
	for _, v := range more {
		s = append(s, int64(float64(v)/slowdown))
	}
	return s
}

// sum adds the samples up.
func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample set, 0 when it is empty.
func percentile(sorted samples, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile picks the highest percentile of {99.99, 99.9, 99, 95,
// 90} that has at least ten of n samples beyond it — the tail a
// sample set of that size can support. It returns 0 when even p90
// cannot be supported (n < 100).
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// median returns the middle value of vals (mean of the two middle ones
// for an even count), 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method
// the acceptance rule uses), so the spreads this program prints are
// the ones the rule judges. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median.
func spreadShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	med := median(vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// ms and us convert nanoseconds for reporting.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
