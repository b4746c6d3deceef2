package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a univariate probability distribution. All the parametric families
// that the workload-modeling literature fits to datacenter features
// (interarrival times, request sizes, service times, utilizations) implement
// it, as does the non-parametric Empirical distribution.
type Dist interface {
	// Name returns the family name, e.g. "exponential".
	Name() string
	// Params returns the distribution parameters in a fixed order.
	Params() []float64
	// Mean returns the distribution mean (possibly +Inf).
	Mean() float64
	// Var returns the distribution variance (possibly +Inf).
	Var() float64
	// PDF returns the density (or mass, for discrete families) at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile, the inverse of CDF.
	Quantile(p float64) float64
	// Rand draws a variate using the supplied source.
	Rand(r *rand.Rand) float64
}

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	A, B float64
}

// Name implements Dist.
func (Uniform) Name() string { return "uniform" }

// Params implements Dist; order is A, B.
func (u Uniform) Params() []float64 { return []float64{u.A, u.B} }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.A + u.B) / 2 }

// Var implements Dist.
func (u Uniform) Var() float64 { d := u.B - u.A; return d * d / 12 }

// PDF implements Dist.
func (u Uniform) PDF(x float64) float64 {
	if x < u.A || x > u.B || u.B <= u.A {
		return 0
	}
	return 1 / (u.B - u.A)
}

// CDF implements Dist.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.A:
		return 0
	case x >= u.B:
		return 1
	default:
		return (x - u.A) / (u.B - u.A)
	}
}

// Quantile implements Dist.
func (u Uniform) Quantile(p float64) float64 { return u.A + clamp01(p)*(u.B-u.A) }

// Rand implements Dist.
func (u Uniform) Rand(r *rand.Rand) float64 { return u.A + r.Float64()*(u.B-u.A) }

// Exponential is the exponential distribution with rate Rate (mean 1/Rate),
// the canonical model for Poisson interarrival times.
type Exponential struct {
	Rate float64
}

// Name implements Dist.
func (Exponential) Name() string { return "exponential" }

// Params implements Dist; order is Rate.
func (e Exponential) Params() []float64 { return []float64{e.Rate} }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var implements Dist.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// PDF implements Dist.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// CDF implements Dist.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*x)
}

// Quantile implements Dist.
func (e Exponential) Quantile(p float64) float64 {
	p = clamp01(p)
	if p == 1 {
		return math.Inf(1)
	}
	return -math.Log(1-p) / e.Rate
}

// Rand implements Dist.
func (e Exponential) Rand(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// Normal is the Gaussian distribution with mean Mu and standard deviation
// Sigma.
type Normal struct {
	Mu, Sigma float64
}

// Name implements Dist.
func (Normal) Name() string { return "normal" }

// Params implements Dist; order is Mu, Sigma.
func (n Normal) Params() []float64 { return []float64{n.Mu, n.Sigma} }

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// Var implements Dist.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// PDF implements Dist.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile implements Dist.
func (n Normal) Quantile(p float64) float64 { return n.Mu + n.Sigma*NormQuantile(clamp01(p)) }

// Rand implements Dist.
func (n Normal) Rand(r *rand.Rand) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// LogNormal is the log-normal distribution: ln X ~ Normal(Mu, Sigma). It is
// the classic heavy-tailed model for file and request sizes.
type LogNormal struct {
	Mu, Sigma float64
}

// Name implements Dist.
func (LogNormal) Name() string { return "lognormal" }

// Params implements Dist; order is Mu, Sigma.
func (l LogNormal) Params() []float64 { return []float64{l.Mu, l.Sigma} }

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Var implements Dist.
func (l LogNormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// PDF implements Dist.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Quantile implements Dist.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormQuantile(clamp01(p)))
}

// Rand implements Dist.
func (l LogNormal) Rand(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Pareto is the (type I) Pareto distribution with scale Xm > 0 and shape
// Alpha > 0, the canonical heavy-tail model (Feitelson's "heavy tails").
type Pareto struct {
	Xm, Alpha float64
}

// Name implements Dist.
func (Pareto) Name() string { return "pareto" }

// Params implements Dist; order is Xm, Alpha.
func (p Pareto) Params() []float64 { return []float64{p.Xm, p.Alpha} }

// Mean implements Dist; infinite for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var implements Dist; infinite for Alpha <= 2.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// PDF implements Dist.
func (p Pareto) PDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return p.Alpha * math.Pow(p.Xm, p.Alpha) / math.Pow(x, p.Alpha+1)
}

// CDF implements Dist.
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile implements Dist.
func (p Pareto) Quantile(q float64) float64 {
	q = clamp01(q)
	if q == 1 {
		return math.Inf(1)
	}
	return p.Xm / math.Pow(1-q, 1/p.Alpha)
}

// Rand implements Dist.
func (p Pareto) Rand(r *rand.Rand) float64 {
	return p.Xm / math.Pow(1-r.Float64(), 1/p.Alpha)
}

// Weibull is the Weibull distribution with shape K and scale Lambda; shape
// below 1 gives the stretched-exponential tails common in storage
// interarrival gaps.
type Weibull struct {
	K, Lambda float64
}

// Name implements Dist.
func (Weibull) Name() string { return "weibull" }

// Params implements Dist; order is K, Lambda.
func (w Weibull) Params() []float64 { return []float64{w.K, w.Lambda} }

// Mean implements Dist.
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// Var implements Dist.
func (w Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/w.K)
	g2 := math.Gamma(1 + 2/w.K)
	return w.Lambda * w.Lambda * (g2 - g1*g1)
}

// PDF implements Dist.
func (w Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	z := x / w.Lambda
	return (w.K / w.Lambda) * math.Pow(z, w.K-1) * math.Exp(-math.Pow(z, w.K))
}

// CDF implements Dist.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Lambda, w.K))
}

// Quantile implements Dist.
func (w Weibull) Quantile(p float64) float64 {
	p = clamp01(p)
	if p == 1 {
		return math.Inf(1)
	}
	return w.Lambda * math.Pow(-math.Log(1-p), 1/w.K)
}

// Rand implements Dist.
func (w Weibull) Rand(r *rand.Rand) float64 {
	return w.Lambda * math.Pow(r.ExpFloat64(), 1/w.K)
}

// Gamma is the gamma distribution with shape Shape and rate Rate
// (mean Shape/Rate). It generalizes Erlang service stages.
type Gamma struct {
	Shape, Rate float64
}

// Name implements Dist.
func (Gamma) Name() string { return "gamma" }

// Params implements Dist; order is Shape, Rate.
func (g Gamma) Params() []float64 { return []float64{g.Shape, g.Rate} }

// Mean implements Dist.
func (g Gamma) Mean() float64 { return g.Shape / g.Rate }

// Var implements Dist.
func (g Gamma) Var() float64 { return g.Shape / (g.Rate * g.Rate) }

// PDF implements Dist.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if g.Shape == 1 {
			return g.Rate
		}
		if g.Shape < 1 {
			return math.Inf(1)
		}
		return 0
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp(g.Shape*math.Log(g.Rate) + (g.Shape-1)*math.Log(x) - g.Rate*x - lg)
}

// CDF implements Dist.
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncP(g.Shape, g.Rate*x)
}

// Quantile implements Dist, via bisection on the CDF.
func (g Gamma) Quantile(p float64) float64 {
	p = clamp01(p)
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	// Bracket: mean + enough standard deviations.
	hi := g.Mean() + 20*math.Sqrt(g.Var())
	for g.CDF(hi) < p {
		hi *= 2
	}
	return bisectCDF(g.CDF, 0, hi, p)
}

// Rand implements Dist using the Marsaglia-Tsang method.
func (g Gamma) Rand(r *rand.Rand) float64 {
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		// X ~ Gamma(shape+1) * U^{1/shape}.
		boost = math.Pow(r.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 || math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return boost * d * v / g.Rate
		}
	}
}

// Deterministic is the degenerate distribution concentrated at Value,
// useful for fixed-size requests and constant service times.
type Deterministic struct {
	Value float64
}

// Name implements Dist.
func (Deterministic) Name() string { return "deterministic" }

// Params implements Dist; order is Value.
func (d Deterministic) Params() []float64 { return []float64{d.Value} }

// Mean implements Dist.
func (d Deterministic) Mean() float64 { return d.Value }

// Var implements Dist.
func (Deterministic) Var() float64 { return 0 }

// PDF implements Dist; it reports the point mass at Value.
func (d Deterministic) PDF(x float64) float64 {
	if x == d.Value {
		return 1
	}
	return 0
}

// CDF implements Dist.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Quantile implements Dist.
func (d Deterministic) Quantile(float64) float64 { return d.Value }

// Rand implements Dist.
func (d Deterministic) Rand(*rand.Rand) float64 { return d.Value }

// Poisson is the Poisson distribution with mean Lambda (a discrete
// distribution over counts; PDF is the probability mass function).
type Poisson struct {
	Lambda float64
}

// Name implements Dist.
func (Poisson) Name() string { return "poisson" }

// Params implements Dist; order is Lambda.
func (p Poisson) Params() []float64 { return []float64{p.Lambda} }

// Mean implements Dist.
func (p Poisson) Mean() float64 { return p.Lambda }

// Var implements Dist.
func (p Poisson) Var() float64 { return p.Lambda }

// PDF implements Dist; x is truncated to an integer count.
func (p Poisson) PDF(x float64) float64 {
	if x < 0 || x != math.Trunc(x) {
		return 0
	}
	k := x
	lg, _ := math.Lgamma(k + 1)
	return math.Exp(k*math.Log(p.Lambda) - p.Lambda - lg)
}

// CDF implements Dist: P(X <= x) = Q(floor(x)+1, lambda).
func (p Poisson) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return GammaIncQ(math.Floor(x)+1, p.Lambda)
}

// Quantile implements Dist by stepping the CDF.
func (p Poisson) Quantile(q float64) float64 {
	q = clamp01(q)
	if q == 1 {
		return math.Inf(1)
	}
	var k float64
	cdf := p.CDF(0)
	for cdf < q && k < 1e9 {
		k++
		cdf = p.CDF(k)
	}
	return k
}

// Rand implements Dist. For small Lambda it uses Knuth's product method;
// for large Lambda, normal approximation with a correction search.
func (p Poisson) Rand(r *rand.Rand) float64 {
	if p.Lambda < 30 {
		l := math.Exp(-p.Lambda)
		k := 0
		prod := r.Float64()
		for prod > l {
			k++
			prod *= r.Float64()
		}
		return float64(k)
	}
	// PTRS-lite: normal approximation rounded, clipped at zero. Accurate
	// enough for workload synthesis at high rates.
	k := math.Round(p.Lambda + math.Sqrt(p.Lambda)*r.NormFloat64())
	if k < 0 {
		return 0
	}
	return k
}

// Zipf is the Zipf distribution over ranks 1..N with exponent S >= 0,
// the standard popularity model for objects and chunks.
type Zipf struct {
	S float64
	N int

	// cdf is the cumulative table precomputed by NewZipf. A zero Zipf
	// still works but recomputes per call: table() deliberately does NOT
	// memoize into the struct, so a NewZipf-constructed Zipf is read-only
	// and safe for concurrent Rand/CDF/Quantile use.
	cdf []float64
	// alias is the frozen O(1) rank sampler, also built by NewZipf; a zero
	// Zipf falls back to binary search over the CDF table.
	alias Alias
}

// NewZipf returns a Zipf distribution with a precomputed CDF table and a
// frozen alias table, making Rand an O(1) draw.
func NewZipf(s float64, n int) *Zipf {
	z := &Zipf{S: s, N: n}
	z.cdf = z.table()
	if len(z.cdf) > 0 {
		pmf := make([]float64, len(z.cdf))
		prev := 0.0
		for i, c := range z.cdf {
			pmf[i] = c - prev
			prev = c
		}
		z.alias = MustAlias(pmf)
	}
	return z
}

func (z *Zipf) table() []float64 {
	if z.cdf != nil {
		return z.cdf
	}
	if z.N <= 0 {
		return nil
	}
	cdf := make([]float64, z.N)
	var sum float64
	for i := 1; i <= z.N; i++ {
		sum += 1 / math.Pow(float64(i), z.S)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// Name implements Dist.
func (*Zipf) Name() string { return "zipf" }

// Params implements Dist; order is S, N.
func (z *Zipf) Params() []float64 { return []float64{z.S, float64(z.N)} }

// Mean implements Dist.
func (z *Zipf) Mean() float64 {
	cdf := z.table()
	var mean, prev float64
	for i, c := range cdf {
		mean += float64(i+1) * (c - prev)
		prev = c
	}
	return mean
}

// Var implements Dist.
func (z *Zipf) Var() float64 {
	cdf := z.table()
	m := z.Mean()
	var v, prev float64
	for i, c := range cdf {
		d := float64(i+1) - m
		v += d * d * (c - prev)
		prev = c
	}
	return v
}

// PDF implements Dist (probability mass at rank x in 1..N).
func (z *Zipf) PDF(x float64) float64 {
	k := int(x)
	if float64(k) != x || k < 1 || k > z.N {
		return 0
	}
	cdf := z.table()
	if k == 1 {
		return cdf[0]
	}
	return cdf[k-1] - cdf[k-2]
}

// CDF implements Dist.
func (z *Zipf) CDF(x float64) float64 {
	k := int(math.Floor(x))
	if k < 1 {
		return 0
	}
	if k >= z.N {
		return 1
	}
	return z.table()[k-1]
}

// Quantile implements Dist.
func (z *Zipf) Quantile(p float64) float64 {
	p = clamp01(p)
	cdf := z.table()
	i := sort.SearchFloat64s(cdf, p)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return float64(i + 1)
}

// Rand implements Dist: an O(1) alias draw when the table was frozen by
// NewZipf, otherwise inversion of the CDF table by binary search. Either
// path consumes exactly one uniform variate.
func (z *Zipf) Rand(r *rand.Rand) float64 {
	if !z.alias.Empty() {
		return float64(z.alias.Draw(r) + 1)
	}
	cdf := z.table()
	u := r.Float64()
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return float64(i + 1)
}

// Empirical is the empirical distribution of a sample: CDF is the ECDF and
// Rand resamples (with interpolation between order statistics).
type Empirical struct {
	sorted []float64
	// grid is the frozen inverse-CDF table Rand draws from. For samples up
	// to empiricalGridCells+1 observations it aliases sorted (draws are
	// bit-identical to interpolating the full sample); above that it is the
	// interpolated ECDF tabulated on a uniform grid, which keeps the
	// random-access working set of a hot synthesis loop at 8 KB per
	// distribution no matter how large the training sample was.
	grid []float64
	// constant holds the single sample value when every observation is
	// identical (common for workloads with deterministic request sizes);
	// Rand then skips the grid loads entirely. constOK marks it valid.
	constant float64
	constOK  bool
}

// empiricalGridCells is the resolution of the frozen inverse-CDF grid; the
// piecewise-linear tabulation error is bounded by the probability mass of
// one cell, 1/1024.
const empiricalGridCells = 1024

// freeze builds the inverse-CDF grid; sorted must already be sorted.
func (e *Empirical) freeze() {
	e.constOK = e.sorted[0] == e.sorted[len(e.sorted)-1]
	e.constant = e.sorted[0]
	if len(e.sorted) <= empiricalGridCells+1 {
		e.grid = e.sorted
		return
	}
	g := make([]float64, empiricalGridCells+1)
	for k := range g {
		g[k] = quantileSorted(e.sorted, float64(k)/empiricalGridCells)
	}
	e.grid = g
}

// NewEmpirical returns the empirical distribution of xs. It copies xs.
func NewEmpirical(xs []float64) (*Empirical, error) {
	return NewEmpiricalOwning(append([]float64(nil), xs...))
}

// NewEmpiricalOwning is NewEmpirical for a sample the caller built for this
// purpose and gives up: xs is sorted in place and kept.
func NewEmpiricalOwning(xs []float64) (*Empirical, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	SortFloats(xs)
	e := &Empirical{sorted: xs}
	e.freeze()
	return e, nil
}

// Name implements Dist.
func (*Empirical) Name() string { return "empirical" }

// Params implements Dist; the sample size.
func (e *Empirical) Params() []float64 { return []float64{float64(len(e.sorted))} }

// Mean implements Dist.
func (e *Empirical) Mean() float64 { return Mean(e.sorted) }

// Var implements Dist.
func (e *Empirical) Var() float64 { return Variance(e.sorted) }

// PDF implements Dist; for the empirical distribution it reports the
// fraction of observations exactly equal to x.
func (e *Empirical) PDF(x float64) float64 {
	lo := sort.SearchFloat64s(e.sorted, x)
	hi := lo
	for hi < len(e.sorted) && e.sorted[hi] == x {
		hi++
	}
	return float64(hi-lo) / float64(len(e.sorted))
}

// CDF implements Dist (the ECDF).
func (e *Empirical) CDF(x float64) float64 {
	// Number of observations <= x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// Quantile implements Dist with linear interpolation.
func (e *Empirical) Quantile(p float64) float64 { return quantileSorted(e.sorted, clamp01(p)) }

// Rand implements Dist by inverse-transform sampling of the frozen
// inverse-CDF grid (the interpolated ECDF itself for small samples; see
// Empirical.grid). One uniform variate per draw.
func (e *Empirical) Rand(r *rand.Rand) float64 {
	u := r.Float64() // always consume one variate, constant sample or not
	if e.constOK {
		return e.constant
	}
	return quantileSorted(e.grid, u)
}

// Sample returns a copy of the sorted sample, so callers can never corrupt
// a trained model by mutating the returned slice.
func (e *Empirical) Sample() []float64 {
	out := make([]float64, len(e.sorted))
	copy(out, e.sorted)
	return out
}

// empiricalJSON is the serialized form of an Empirical distribution.
type empiricalJSON struct {
	Sample []float64 `json:"sample"`
}

// MarshalJSON implements json.Marshaler.
func (e *Empirical) MarshalJSON() ([]byte, error) {
	return json.Marshal(empiricalJSON{Sample: e.sorted})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Empirical) UnmarshalJSON(data []byte) error {
	var raw empiricalJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if len(raw.Sample) == 0 {
		return ErrEmpty
	}
	e.sorted = sortedCopy(raw.Sample)
	e.freeze()
	return nil
}

// DistFromSpec reconstructs a parametric distribution from its Name() and
// Params() values — the inverse of the Dist accessors, used when loading
// persisted models. The empirical family is not parametric and is rejected.
func DistFromSpec(name string, params []float64) (Dist, error) {
	need := func(n int) error {
		if len(params) != n {
			return fmt.Errorf("stats: %s needs %d parameters, got %d", name, n, len(params))
		}
		return nil
	}
	switch name {
	case "uniform":
		if err := need(2); err != nil {
			return nil, err
		}
		return Uniform{A: params[0], B: params[1]}, nil
	case "exponential":
		if err := need(1); err != nil {
			return nil, err
		}
		return Exponential{Rate: params[0]}, nil
	case "normal":
		if err := need(2); err != nil {
			return nil, err
		}
		return Normal{Mu: params[0], Sigma: params[1]}, nil
	case "lognormal":
		if err := need(2); err != nil {
			return nil, err
		}
		return LogNormal{Mu: params[0], Sigma: params[1]}, nil
	case "pareto":
		if err := need(2); err != nil {
			return nil, err
		}
		return Pareto{Xm: params[0], Alpha: params[1]}, nil
	case "weibull":
		if err := need(2); err != nil {
			return nil, err
		}
		return Weibull{K: params[0], Lambda: params[1]}, nil
	case "gamma":
		if err := need(2); err != nil {
			return nil, err
		}
		return Gamma{Shape: params[0], Rate: params[1]}, nil
	case "deterministic":
		if err := need(1); err != nil {
			return nil, err
		}
		return Deterministic{Value: params[0]}, nil
	case "poisson":
		if err := need(1); err != nil {
			return nil, err
		}
		return Poisson{Lambda: params[0]}, nil
	case "zipf":
		if err := need(2); err != nil {
			return nil, err
		}
		return NewZipf(params[0], int(params[1])), nil
	default:
		return nil, fmt.Errorf("stats: unknown distribution family %q", name)
	}
}

// Sample draws n variates from d using r.
func Sample(d Dist, n int, r *rand.Rand) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Rand(r)
	}
	return xs
}

// DescribeDist formats a distribution with its parameters, e.g.
// "pareto(xm=1.0, alpha=1.5)".
func DescribeDist(d Dist) string {
	return fmt.Sprintf("%s%v", d.Name(), d.Params())
}

func clamp01(p float64) float64 {
	switch {
	case p < 0 || math.IsNaN(p):
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// bisectCDF finds x in [lo, hi] with cdf(x) = p to within 1e-12 relative
// tolerance.
func bisectCDF(cdf func(float64) float64, lo, hi, p float64) float64 {
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	return (lo + hi) / 2
}
