package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"dcmodel/internal/par"
)

// Maximum-likelihood fitting for the distribution families, plus the
// distribution-fitting selector that the network-modeling literature
// (Feitelson, Li, Sengupta) applies to interarrival times: fit every
// candidate family and pick the one with the smallest Kolmogorov-Smirnov
// distance.

// FitExponential fits an exponential distribution by MLE (rate = 1/mean).
// All observations must be positive on average.
func FitExponential(xs []float64) (Exponential, error) {
	if len(xs) == 0 {
		return Exponential{}, ErrEmpty
	}
	m := Mean(xs)
	if m <= 0 {
		return Exponential{}, fmt.Errorf("stats: exponential fit needs positive mean, got %g", m)
	}
	return Exponential{Rate: 1 / m}, nil
}

// FitNormal fits a Gaussian by MLE (sample mean and population std).
func FitNormal(xs []float64) (Normal, error) {
	if len(xs) < 2 {
		return Normal{}, ErrShortSample
	}
	sigma := math.Sqrt(PopVariance(xs))
	if sigma == 0 {
		sigma = 1e-12
	}
	return Normal{Mu: Mean(xs), Sigma: sigma}, nil
}

// FitLogNormal fits a log-normal by MLE on the logs. All observations must
// be positive.
func FitLogNormal(xs []float64) (LogNormal, error) {
	if len(xs) < 2 {
		return LogNormal{}, ErrShortSample
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return LogNormal{}, fmt.Errorf("stats: lognormal fit needs positive data, got %g", x)
		}
		logs[i] = math.Log(x)
	}
	sigma := math.Sqrt(PopVariance(logs))
	if sigma == 0 {
		sigma = 1e-12
	}
	return LogNormal{Mu: Mean(logs), Sigma: sigma}, nil
}

// FitPareto fits a Pareto distribution by MLE: Xm is the sample minimum and
// Alpha the Hill estimator n / sum(ln(x_i/xm)). All observations must be
// positive.
func FitPareto(xs []float64) (Pareto, error) {
	if len(xs) < 2 {
		return Pareto{}, ErrShortSample
	}
	xm := Min(xs)
	if xm <= 0 {
		return Pareto{}, fmt.Errorf("stats: pareto fit needs positive data, got min %g", xm)
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x / xm)
	}
	if s <= 0 {
		return Pareto{}, fmt.Errorf("stats: pareto fit degenerate (all observations equal)")
	}
	return Pareto{Xm: xm, Alpha: float64(len(xs)) / s}, nil
}

// FitWeibull fits a Weibull distribution by MLE, solving the profile shape
// equation with Newton iteration. All observations must be positive.
func FitWeibull(xs []float64) (Weibull, error) {
	if len(xs) < 2 {
		return Weibull{}, ErrShortSample
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return Weibull{}, fmt.Errorf("stats: weibull fit needs positive data, got %g", x)
		}
		logs[i] = math.Log(x)
	}
	meanLog := Mean(logs)
	// Initial guess from the method of moments on logs:
	// Var(ln X) = pi^2 / (6 k^2).
	sl := math.Sqrt(PopVariance(logs))
	k := 1.0
	if sl > 0 {
		k = math.Pi / (sl * math.Sqrt(6))
	}
	// Newton iteration on f(k) = A(k)/B(k) - 1/k - meanLog = 0 where
	// A(k) = sum x^k ln x, B(k) = sum x^k.
	for iter := 0; iter < 100; iter++ {
		var bk, ak, ck float64 // sum x^k, sum x^k lnx, sum x^k (lnx)^2
		for i, lx := range logs {
			xk := math.Exp(k * logs[i])
			bk += xk
			ak += xk * lx
			ck += xk * lx * lx
		}
		f := ak/bk - 1/k - meanLog
		fp := (ck*bk-ak*ak)/(bk*bk) + 1/(k*k)
		if fp == 0 {
			break
		}
		next := k - f/fp
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-10*k {
			k = next
			break
		}
		k = next
	}
	if !(k > 0) || math.IsInf(k, 0) {
		return Weibull{}, fmt.Errorf("stats: weibull shape iteration diverged")
	}
	var bk float64
	for _, x := range xs {
		bk += math.Pow(x, k)
	}
	lambda := math.Pow(bk/float64(len(xs)), 1/k)
	return Weibull{K: k, Lambda: lambda}, nil
}

// FitGamma fits a gamma distribution by MLE using the Minka/generalized
// Newton iteration on the shape. All observations must be positive.
func FitGamma(xs []float64) (Gamma, error) {
	if len(xs) < 2 {
		return Gamma{}, ErrShortSample
	}
	m := Mean(xs)
	var sumLog float64
	for _, x := range xs {
		if x <= 0 {
			return Gamma{}, fmt.Errorf("stats: gamma fit needs positive data, got %g", x)
		}
		sumLog += math.Log(x)
	}
	meanLog := sumLog / float64(len(xs))
	s := math.Log(m) - meanLog
	if s <= 0 {
		// Zero-variance sample; arbitrary high shape approximates a point.
		return Gamma{Shape: 1e6, Rate: 1e6 / m}, nil
	}
	// Standard initialization.
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	for iter := 0; iter < 100; iter++ {
		f := math.Log(k) - Digamma(k) - s
		fp := 1/k - Trigamma(k)
		if fp == 0 {
			break
		}
		next := k - f/fp
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < 1e-12*k {
			k = next
			break
		}
		k = next
	}
	return Gamma{Shape: k, Rate: k / m}, nil
}

// FitUniform fits a uniform distribution by MLE (sample min and max).
func FitUniform(xs []float64) (Uniform, error) {
	if len(xs) < 2 {
		return Uniform{}, ErrShortSample
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		hi = lo + 1e-12
	}
	return Uniform{A: lo, B: hi}, nil
}

// FitResult reports the outcome of fitting one candidate family.
type FitResult struct {
	Dist Dist
	// KS is the one-sample Kolmogorov-Smirnov statistic of the data against
	// the fitted distribution.
	KS float64
	// P is the associated asymptotic p-value.
	P float64
	// Err is non-nil when the family could not be fitted to this sample.
	Err error
}

// FitAll fits every continuous candidate family to xs and returns the
// results sorted by ascending KS distance (best fit first). Families that
// fail to fit appear last with Err set.
func FitAll(xs []float64) []FitResult {
	results := fitFamilies(xs, nil)
	slices.SortStableFunc(results, func(a, b FitResult) int { return CompareLess(a.KS, b.KS) })
	return results
}

// errOutscored marks a family whose KS scan FitBest stopped.
var errOutscored = errors.New("stats: outscored by a finished family")

// fitFamilies fits every family to xs side by side, each into its own slot,
// in fitters' order. The families are fitted to xs as given (the estimators
// sum in sample order) and all tested against one sorted copy. With a
// bound, a family's scan stops once its distance exceeds the bound, which
// every finished family lowers to its own distance; such a slot holds
// errOutscored.
func fitFamilies(xs []float64, bound *ksBound) []FitResult {
	sorted := sortedCopy(xs)
	results := make([]FitResult, len(fitters))
	par.Do(len(fitters), 0, func(i int) error {
		f := fitters[i]
		d, err := f.fit(xs)
		if err != nil {
			results[i] = FitResult{Err: fmt.Errorf("%s: %w", f.name, err), KS: math.Inf(1)}
			return nil
		}
		ks, ok := ksTestSorted(sorted, d, bound)
		if !ok {
			results[i] = FitResult{Err: errOutscored, KS: math.Inf(1)}
			return nil
		}
		bound.lower(ks.Statistic)
		results[i] = FitResult{Dist: d, KS: ks.Statistic, P: ks.P}
		return nil
	})
	return results
}

// ksBound is the smallest KS distance of the families that finished
// scoring, shared by the scans of one FitBest. A nil bound bounds nothing.
type ksBound struct{ bits atomic.Uint64 }

func newKSBound() *ksBound {
	b := new(ksBound)
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// exceeded reports whether d is above the bound.
func (b *ksBound) exceeded(d float64) bool {
	return b != nil && d > math.Float64frombits(b.bits.Load())
}

// lower lowers the bound to d if d is below it.
func (b *ksBound) lower(d float64) {
	if b == nil {
		return
	}
	for {
		old := b.bits.Load()
		if !(d < math.Float64frombits(old)) || b.bits.CompareAndSwap(old, math.Float64bits(d)) {
			return
		}
	}
}

// fitter is one candidate family of FitAll.
type fitter struct {
	name string
	fit  func([]float64) (Dist, error)
}

// fitters lists FitAll's families; the stable sort breaks KS ties in this
// order.
var fitters = [...]fitter{
	{"exponential", func(v []float64) (Dist, error) { return firstErr(FitExponential(v)) }},
	{"normal", func(v []float64) (Dist, error) { return firstErr(FitNormal(v)) }},
	{"lognormal", func(v []float64) (Dist, error) { return firstErr(FitLogNormal(v)) }},
	{"pareto", func(v []float64) (Dist, error) { return firstErr(FitPareto(v)) }},
	{"weibull", func(v []float64) (Dist, error) { return firstErr(FitWeibull(v)) }},
	{"gamma", func(v []float64) (Dist, error) { return firstErr(FitGamma(v)) }},
	{"uniform", func(v []float64) (Dist, error) { return firstErr(FitUniform(v)) }},
}

// FitBest fits all candidate families and returns the best by KS distance.
// This is the "distribution fitting through the Kolmogorov-Smirnov test"
// procedure Feitelson proposes for arrival processes.
//
// It returns exactly FitAll's head, for less work: a family's scan stops
// once its distance exceeds that of a family that finished, which is at
// least the winner's, so a stopped family is strictly worse than the
// winner. Ties are never stopped and go to the family listed first, as
// under FitAll's stable sort.
func FitBest(xs []float64) (FitResult, error) {
	results := fitFamilies(xs, newKSBound())
	best := -1
	for i, r := range results {
		if r.Err == nil && (best < 0 || r.KS < results[best].KS) {
			best = i
		}
	}
	if best < 0 {
		return FitResult{}, fmt.Errorf("stats: no distribution family fits the sample")
	}
	return results[best], nil
}

func firstErr[D Dist](d D, err error) (Dist, error) {
	if err != nil {
		return nil, err
	}
	return d, nil
}
