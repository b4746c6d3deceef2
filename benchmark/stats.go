package main

import (
	"math"
	"sort"

	"dcmodel/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median and percentile are stats.Median and stats.QuantileSorted (p in
// 0..100, asc ascending), except that an empty sample reads 0, not NaN: a
// layer the workload never enters reports 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return stats.QuantileSorted(asc, p/100)
}

// tailPercentiles are the candidates of the percentile rule, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// qualifyingTail is the percentile rule: the highest candidate percentile
// with at least ten samples beyond it, 50 when none qualifies.
func qualifyingTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quartiles are Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4) gives
// them (the exclusive method), so spreads here read as the driver's do.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
