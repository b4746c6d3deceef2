// Package stats is the statistics substrate for dcmodel.
//
// It provides, from scratch and on top of the standard library only, the
// statistical machinery that the datacenter workload-modeling literature
// reviewed by the paper relies on: descriptive statistics, histograms and
// empirical CDFs, a family of parametric distributions with maximum-
// likelihood fitting, goodness-of-fit tests (Kolmogorov-Smirnov,
// chi-square), time-series analysis (autocorrelation, burstiness,
// self-similarity via Hurst-exponent estimation), dimensionality reduction
// (PCA), regression, and clustering (k-means and Gaussian-mixture EM).
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

// Skewness returns the adjusted Fisher-Pearson sample skewness of xs.
// It returns 0 for samples with fewer than three observations or zero
// variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Kurtosis returns the excess sample kurtosis of xs (0 for a Gaussian).
// It returns 0 for samples with fewer than four observations or zero
// variance.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
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

// Covariance returns the unbiased sample covariance of paired samples
// xs and ys, which must have equal length.
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
// It returns 0 when either sample has zero variance.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// GeometricMean returns the geometric mean of xs; all observations must be
// positive, otherwise NaN is returned.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Summary aggregates the descriptive statistics most commonly reported for
// workload features (sizes, interarrival times, utilizations).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	P25      float64
	Median   float64
	P75      float64
	P95      float64
	P99      float64
	Max      float64
	Skewness float64
	Kurtosis float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := sortedCopy(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      sorted[0],
		P25:      quantileSorted(sorted, 0.25),
		Median:   quantileSorted(sorted, 0.5),
		P75:      quantileSorted(sorted, 0.75),
		P95:      quantileSorted(sorted, 0.95),
		P99:      quantileSorted(sorted, 0.99),
		Max:      sorted[len(sorted)-1],
		Skewness: Skewness(xs),
		Kurtosis: Kurtosis(xs),
	}
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
