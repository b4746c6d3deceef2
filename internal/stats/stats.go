// Package stats is the statistics substrate for dcmodel.
//
// It provides, from scratch and on top of the standard library only, the
// statistical machinery that the datacenter workload-modeling literature
// reviewed by the paper relies on: descriptive statistics, a family of
// parametric and empirical distributions with maximum-likelihood fitting,
// Kolmogorov-Smirnov goodness-of-fit tests, time-series analysis
// (burstiness, self-similarity via Hurst-exponent estimation),
// dimensionality reduction (PCA), k-means clustering, alias tables,
// reservoirs and the float-sample sort.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by estimators that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrShortSample is returned by estimators that require more observations
// than were supplied.
var ErrShortSample = errors.New("stats: sample too short")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population (n) variance of xs.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It returns +Inf for an empty sample.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It returns -Inf for an empty sample.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the R and
// NumPy default). It returns NaN for an empty sample.
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	return quantileSorted(sortedCopy(xs), p)
}

// CompareLess is the three-way form of a < b for slices.SortFunc: negative
// when a < b, positive when b < a, else zero. A NaN is neither, so it
// compares equal to everything, exactly as under sort.Slice with a < b as
// the less function; a typed sort built on CompareLess therefore makes the
// decisions the reflection-based one made, and leaves the same order.
// (cmp.Compare orders NaN first, which a sample holding one would show.)
func CompareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// sortedCopy returns xs in ascending order, leaving xs as it is.
func sortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	SortFloats(s)
	return s
}

// QuantileSorted is Quantile for data already in ascending order; it avoids
// the copy-and-sort. The caller must guarantee sortedness.
func QuantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CoefVar returns the coefficient of variation (std/mean) of xs, a standard
// burstiness indicator for service and interarrival times. It returns NaN
// when the mean is zero.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// SquaredCoefVar returns the squared coefficient of variation of xs
// (1 for exponential interarrivals; >1 indicates burstier-than-Poisson).
func SquaredCoefVar(xs []float64) float64 {
	cv := CoefVar(xs)
	return cv * cv
}

// RelError returns the relative deviation |got-want| / |want|, the metric the
// paper's Table 2 reports as "Variation". When want is zero it returns the
// absolute deviation |got|.
func RelError(want, got float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
