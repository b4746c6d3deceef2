package stats

import "math"

// The Anderson-Darling goodness-of-fit test: like Kolmogorov-Smirnov but
// weighted toward the distribution tails, where heavy-tailed workload
// features live. The p-value approximation is for the fully specified
// (case 0) null distribution.

// ADResult is the outcome of an Anderson-Darling test.
type ADResult struct {
	// Statistic is the A^2 statistic.
	Statistic float64
	// P is the approximate p-value (case 0).
	P float64
}

// ADTest tests the sample xs against the fully specified distribution d.
// Observations at the extreme CDF values are clamped to keep the logs
// finite.
func ADTest(xs []float64, d Dist) ADResult {
	n := len(xs)
	if n == 0 {
		return ADResult{P: 1}
	}
	sorted := sortedCopy(xs)
	const eps = 1e-12
	var sum float64
	for i := 0; i < n; i++ {
		fi := clampProb(d.CDF(sorted[i]), eps)
		fr := clampProb(d.CDF(sorted[n-1-i]), eps)
		sum += float64(2*i+1) * (math.Log(fi) + math.Log(1-fr))
	}
	a2 := -float64(n) - sum/float64(n)
	return ADResult{Statistic: a2, P: adPValue(a2)}
}

func clampProb(p, eps float64) float64 {
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// adPValue returns 1 - adinf(a2), the asymptotic case-0 p-value using the
// Marsaglia & Marsaglia (2004) approximation of the Anderson-Darling
// distribution.
func adPValue(a2 float64) float64 {
	if a2 <= 0 {
		return 1
	}
	p := 1 - adinf(a2)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// adinf approximates P(A^2 <= z) for the asymptotic Anderson-Darling
// distribution (Marsaglia & Marsaglia 2004).
func adinf(z float64) float64 {
	switch {
	case z <= 0:
		return 0
	case z < 2:
		return math.Exp(-1.2337141/z) / math.Sqrt(z) *
			(2.00012 + (0.247105-(0.0649821-(0.0347962-(0.011672-0.00168691*z)*z)*z)*z)*z)
	default:
		return math.Exp(-math.Exp(1.0776 - (2.30695-(0.43424-(0.082433-(0.008056-0.0003146*z)*z)*z)*z)*z))
	}
}
