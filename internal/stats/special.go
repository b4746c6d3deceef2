package stats

import "math"

// Special functions used by the distribution family and the goodness-of-fit
// tests. Only what the substrate needs is implemented: the regularized
// incomplete gamma function (chi-square and gamma CDFs), the digamma
// function (gamma MLE), and the Kolmogorov distribution tail.

// GammaIncP returns the lower regularized incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0.
//
// The implementation follows Numerical Recipes: a series expansion for
// x < a+1 and a continued fraction for x >= a+1.
func GammaIncP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContFrac(a, x)
	}
}

// GammaIncQ returns the upper regularized incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaIncQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case x < a+1:
		return 1 - gammaSeries(a, x)
	default:
		return gammaContFrac(a, x)
	}
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 500
)

// gammaSeries evaluates P(a,x) by its series representation (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContFrac evaluates Q(a,x) by its continued-fraction representation
// (x >= a+1) using modified Lentz's method.
func gammaContFrac(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// Digamma returns the digamma function psi(x) = d/dx ln Gamma(x) for x > 0,
// via the recurrence psi(x) = psi(x+1) - 1/x and an asymptotic expansion.
func Digamma(x float64) float64 {
	if x <= 0 || math.IsNaN(x) {
		return math.NaN()
	}
	var result float64
	for x < 10 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// Asymptotic series:
	// ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6) + 1/(240x^8).
	result += math.Log(x) - 0.5*inv -
		inv2*(1.0/12-inv2*(1.0/120-inv2*(1.0/252-inv2/240)))
	return result
}

// Trigamma returns the trigamma function psi'(x) for x > 0, used by the
// Newton iteration in the gamma-distribution MLE.
func Trigamma(x float64) float64 {
	if x <= 0 || math.IsNaN(x) {
		return math.NaN()
	}
	var result float64
	for x < 10 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// Asymptotic series:
	// 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9).
	result += inv + 0.5*inv2 +
		inv2*inv*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2/30)))
	return result
}

// KolmogorovQ returns the complementary CDF Q(lambda) = P(K > lambda) of the
// Kolmogorov distribution: Q(lambda) = 2 * sum_{j>=1} (-1)^{j-1}
// exp(-2 j^2 lambda^2). It is used to convert a KS statistic into a p-value.
func KolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var (
		sum  float64
		sign = 1.0
		l2   = lambda * lambda
	)
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*l2)
		sum += term
		if math.Abs(term) < 1e-12*math.Abs(sum)+1e-300 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
