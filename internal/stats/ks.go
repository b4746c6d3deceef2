package stats

import (
	"math"
	"sort"
)

// Goodness-of-fit tests: one- and two-sample Kolmogorov-Smirnov and the
// chi-square test, the two tests the distribution-fitting literature uses
// to accept or reject a candidate arrival-process model.

// KSResult is the outcome of a Kolmogorov-Smirnov test.
type KSResult struct {
	// Statistic is the maximum absolute difference between the compared
	// CDFs (D_n), in [0, 1].
	Statistic float64
	// P is the asymptotic p-value: small values reject the hypothesis that
	// the sample follows the reference distribution.
	P float64
	// N is the effective sample size used for the p-value.
	N float64
}

// KSTest performs a one-sample Kolmogorov-Smirnov test of xs against the
// distribution d. An empty sample yields a zero-valued result with P = 1.
func KSTest(xs []float64, d Dist) KSResult {
	return KSTestSorted(sortedCopy(xs), d)
}

// KSTestSorted is KSTest for a sample already in ascending order.
func KSTestSorted(sorted []float64, d Dist) KSResult {
	r, _ := ksTestSorted(sorted, d, nil)
	return r
}

// ksStride is the step of ksTestSorted's first sweep.
const ksStride = 16

// ksTestSorted is KSTestSorted under a bound: it stops, reporting false,
// once the running distance exceeds the bound.
func ksTestSorted(sorted []float64, d Dist, bound *ksBound) (KSResult, bool) {
	n := len(sorted)
	if n == 0 {
		return KSResult{P: 1}, true
	}
	// The scan visits every ksStride-th point, then the points after those,
	// and so on: a family a bound will stop meets its large deviations
	// early. The distance is a maximum, the same in any order.
	var dn float64
	for first := 0; first < ksStride; first++ {
		for i := first; i < n; i += ksStride {
			f := d.CDF(sorted[i])
			upper := float64(i+1)/float64(n) - f
			lower := f - float64(i)/float64(n)
			if upper > dn {
				dn = upper
			}
			if lower > dn {
				dn = lower
			}
			if bound.exceeded(dn) {
				return KSResult{}, false
			}
		}
	}
	en := float64(n)
	lambda := (math.Sqrt(en) + 0.12 + 0.11/math.Sqrt(en)) * dn
	return KSResult{Statistic: dn, P: KolmogorovQ(lambda), N: en}, true
}

// KSTest2 performs a two-sample Kolmogorov-Smirnov test between samples
// xs and ys. Empty samples yield P = 1.
func KSTest2(xs, ys []float64) KSResult {
	return KSTest2Sorted(sortedCopy(xs), sortedCopy(ys))
}

// KSTest2Sorted is KSTest2 for samples already in ascending order.
func KSTest2Sorted(a, b []float64) KSResult {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return KSResult{P: 1}
	}
	var (
		i, j int
		dn   float64
	)
	for i < n1 && j < n2 {
		x1, x2 := a[i], b[j]
		x := math.Min(x1, x2)
		for i < n1 && a[i] <= x {
			i++
		}
		for j < n2 && b[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(n1) - float64(j)/float64(n2))
		if diff > dn {
			dn = diff
		}
	}
	en := float64(n1) * float64(n2) / float64(n1+n2)
	lambda := (math.Sqrt(en) + 0.12 + 0.11/math.Sqrt(en)) * dn
	return KSResult{Statistic: dn, P: KolmogorovQ(lambda), N: en}
}

// ChiSquareResult is the outcome of a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	// Statistic is the chi-square statistic over the binned sample.
	Statistic float64
	// DF is the degrees of freedom (bins - 1 - nparams).
	DF int
	// P is the p-value P(X^2_df >= Statistic).
	P float64
}

// ChiSquareTest bins xs into nbins equal-probability bins under d and tests
// the observed counts against the expected. nparams is the number of
// parameters estimated from the data (reduces the degrees of freedom).
func ChiSquareTest(xs []float64, d Dist, nbins, nparams int) ChiSquareResult {
	n := len(xs)
	if n == 0 || nbins < 2 {
		return ChiSquareResult{P: 1}
	}
	edges := make([]float64, nbins-1)
	for i := 1; i < nbins; i++ {
		edges[i-1] = d.Quantile(float64(i) / float64(nbins))
	}
	counts := make([]int, nbins)
	for _, x := range xs {
		idx := sort.SearchFloat64s(edges, x)
		counts[idx]++
	}
	expected := float64(n) / float64(nbins)
	var stat float64
	for _, c := range counts {
		diff := float64(c) - expected
		stat += diff * diff / expected
	}
	df := nbins - 1 - nparams
	if df < 1 {
		df = 1
	}
	return ChiSquareResult{
		Statistic: stat,
		DF:        df,
		P:         ChiSquareSF(stat, float64(df)),
	}
}

// ChiSquareSF returns the survival function P(X^2_df >= x) of the
// chi-square distribution with df degrees of freedom.
func ChiSquareSF(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return GammaIncQ(df/2, x/2)
}
