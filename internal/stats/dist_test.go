package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// allDists returns one representative of each distribution family with
// fixed, well-behaved parameters.
func allDists() []Dist {
	return []Dist{
		Uniform{A: 2, B: 10},
		Exponential{Rate: 0.5},
		Normal{Mu: 3, Sigma: 2},
		LogNormal{Mu: 1, Sigma: 0.5},
		Pareto{Xm: 1, Alpha: 2.5},
		Weibull{K: 1.5, Lambda: 2},
		Gamma{Shape: 3, Rate: 2},
		Deterministic{Value: 7},
		Poisson{Lambda: 4},
		NewZipf(1.1, 100),
	}
}

func TestDistCDFMonotone(t *testing.T) {
	for _, d := range allDists() {
		t.Run(d.Name(), func(t *testing.T) {
			prev := -0.1
			for x := -5.0; x <= 50; x += 0.25 {
				c := d.CDF(x)
				if c < prev-1e-12 {
					t.Fatalf("CDF not monotone at x=%g: %g < %g", x, c, prev)
				}
				if c < 0 || c > 1 {
					t.Fatalf("CDF out of [0,1] at x=%g: %g", x, c)
				}
				prev = c
			}
		})
	}
}

func TestDistSampleMoments(t *testing.T) {
	// Sample mean/variance should be close to the analytic values.
	r := rand.New(rand.NewSource(42))
	const n = 100000
	for _, d := range allDists() {
		if math.IsInf(d.Var(), 1) {
			continue
		}
		t.Run(d.Name(), func(t *testing.T) {
			xs := Sample(d, n, r)
			wantMean, wantVar := d.Mean(), d.Var()
			tolM := 0.05 * (math.Abs(wantMean) + math.Sqrt(wantVar) + 0.01)
			approx(t, Mean(xs), wantMean, tolM, "sample mean")
			tolV := 0.12 * (wantVar + 0.01)
			approx(t, Variance(xs), wantVar, tolV, "sample variance")
		})
	}
}

func TestDistSampleAgainstCDF(t *testing.T) {
	// KS test of each continuous family's sampler against its own CDF
	// should not reject.
	r := rand.New(rand.NewSource(99))
	continuous := []Dist{
		Uniform{A: 2, B: 10},
		Exponential{Rate: 0.5},
		Normal{Mu: 3, Sigma: 2},
		LogNormal{Mu: 1, Sigma: 0.5},
		Pareto{Xm: 1, Alpha: 2.5},
		Weibull{K: 1.5, Lambda: 2},
		Gamma{Shape: 3, Rate: 2},
	}
	for _, d := range continuous {
		t.Run(d.Name(), func(t *testing.T) {
			xs := Sample(d, 5000, r)
			res := KSTest(xs, d)
			if res.P < 0.001 {
				t.Errorf("sampler rejected against own CDF: D=%g p=%g", res.Statistic, res.P)
			}
		})
	}
}

func TestParetoMoments(t *testing.T) {
	p := Pareto{Xm: 2, Alpha: 3}
	approx(t, p.Mean(), 3, 1e-12, "pareto mean")
	approx(t, p.Var(), 3, 1e-12, "pareto variance")
	heavy := Pareto{Xm: 1, Alpha: 0.9}
	if !math.IsInf(heavy.Mean(), 1) {
		t.Error("pareto alpha<=1 should have infinite mean")
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1.5}.Var(), 1) {
		t.Error("pareto alpha<=2 should have infinite variance")
	}
}

func TestPoissonPMFSums(t *testing.T) {
	p := Poisson{Lambda: 3}
	approx(t, p.CDF(0), math.Exp(-3), 1e-12, "poisson mass at 0")
	approx(t, p.CDF(60), 1, 1e-9, "poisson pmf total mass")
	if p.CDF(1.5) != p.CDF(1) {
		t.Error("poisson PMF at non-integer should be 0")
	}
}

func TestPoissonLargeLambdaRand(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := Poisson{Lambda: 200}
	xs := Sample(p, 20000, r)
	approx(t, Mean(xs), 200, 2, "poisson large-lambda mean")
	approx(t, Variance(xs), 200, 12, "poisson large-lambda variance")
}

func TestZipf(t *testing.T) {
	z := NewZipf(1.0, 10)
	// PMF proportional to 1/k.
	var h float64
	for k := 1; k <= 10; k++ {
		h += 1 / float64(k)
	}
	approx(t, z.CDF(1), 1/h, 1e-12, "zipf pmf rank 1")
	approx(t, z.CDF(10)-z.CDF(9), 1/(10*h), 1e-12, "zipf pmf rank 10")
	approx(t, z.CDF(10), 1, 1e-12, "zipf cdf at N")
	if z.CDF(0.5) != 0 || z.CDF(11) != 1 {
		t.Error("zipf PMF outside 1..N should be 0")
	}
	r := rand.New(rand.NewSource(6))
	xs := Sample(z, 50000, r)
	approx(t, Mean(xs), z.Mean(), 0.05*z.Mean(), "zipf sample mean")
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 4}
	if d.CDF(3.999) != 0 || d.CDF(4) != 1 {
		t.Error("deterministic CDF step is wrong")
	}
	if d.Rand(nil) != 4 {
		t.Error("deterministic rand should be the value")
	}
}

func TestEmpirical(t *testing.T) {
	e, err := NewEmpirical([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, e.CDF(2), 0.75, 1e-12, "empirical CDF")
	approx(t, e.CDF(2)-e.CDF(1), 0.5, 1e-12, "empirical point mass")
	approx(t, e.Mean(), 2, 1e-12, "empirical mean")
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("NewEmpirical(nil) should fail")
	}
	r := rand.New(rand.NewSource(8))
	xs := Sample(e, 20000, r)
	approx(t, Mean(xs), 2, 0.05, "empirical resample mean")
}

func TestNewEmpiricalOwning(t *testing.T) {
	xs := []float64{3, 1, 2, 2}
	e, err := NewEmpiricalOwning(xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 2, 3}; !reflect.DeepEqual(xs, want) || &e.sorted[0] != &xs[0] {
		t.Errorf("owning form must sort and keep its argument: %v", xs)
	}
	c, err := NewEmpirical([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, c) {
		t.Errorf("owning and copying forms differ: %+v vs %+v", e, c)
	}
	if _, err := NewEmpiricalOwning(nil); err == nil {
		t.Error("NewEmpiricalOwning(nil) should fail")
	}
	ys := []float64{3, 1, 2}
	if _, err := NewEmpirical(ys); err != nil || !reflect.DeepEqual(ys, []float64{3, 1, 2}) {
		t.Errorf("copying form changed its argument: %v (%v)", ys, err)
	}
}

func TestGammaRandSmallShape(t *testing.T) {
	// Shape < 1 exercises the boost path of Marsaglia-Tsang.
	r := rand.New(rand.NewSource(9))
	g := Gamma{Shape: 0.5, Rate: 1}
	xs := Sample(g, 50000, r)
	approx(t, Mean(xs), 0.5, 0.02, "gamma(0.5) mean")
	res := KSTest(xs[:5000], g)
	if res.P < 0.001 {
		t.Errorf("gamma small-shape sampler rejected: p=%g", res.P)
	}
}

func TestUniformEdges(t *testing.T) {
	u := Uniform{A: 1, B: 3}
	if u.CDF(0.5) != 0 || u.CDF(3.5) != 1 {
		t.Error("uniform CDF outside support should be 0 or 1")
	}
	approx(t, u.CDF(2), 0.5, 1e-12, "uniform midpoint")
	approx(t, u.CDF(1.5), 0.25, 1e-12, "uniform quarter")
}

func TestDistFromSpecRoundTrip(t *testing.T) {
	for _, d := range allDists() {
		if d.Name() == "empirical" {
			continue
		}
		back, err := DistFromSpec(d.Name(), d.Params())
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if back.Name() != d.Name() {
			t.Errorf("family changed: %s -> %s", d.Name(), back.Name())
		}
		wantParams := d.Params()
		for i, p := range back.Params() {
			if p != wantParams[i] {
				t.Errorf("%s param %d: %g != %g", d.Name(), i, p, wantParams[i])
			}
		}
		// Same CDF at a few points.
		for _, x := range []float64{0.5, 1, 3, 10} {
			if math.Abs(back.CDF(x)-d.CDF(x)) > 1e-12 {
				t.Errorf("%s CDF(%g) differs", d.Name(), x)
			}
		}
	}
	if _, err := DistFromSpec("bogus", nil); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := DistFromSpec("normal", []float64{1}); err == nil {
		t.Error("wrong param count should fail")
	}
	if _, err := DistFromSpec("empirical", []float64{5}); err == nil {
		t.Error("empirical is not parametric")
	}
}

func TestEmpiricalJSONRoundTrip(t *testing.T) {
	e, err := NewEmpirical([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Empirical
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Sample(), e.Sample()) {
		t.Errorf("sample changed: %v vs %v", back.Sample(), e.Sample())
	}
	if err := json.Unmarshal([]byte(`{"sample":[]}`), &back); err == nil {
		t.Error("empty sample should fail")
	}
	if err := json.Unmarshal([]byte(`{`), &back); err == nil {
		t.Error("bad json should fail")
	}
}

func TestDescribeDist(t *testing.T) {
	got := DescribeDist(Exponential{Rate: 2})
	if got != "exponential[2]" {
		t.Errorf("DescribeDist = %q", got)
	}
}

// TestDistFromSpecRefusesDomain wants every spec whose draws could be NaN
// or never return refused, and a DistSpec to round-trip a distribution.
func TestDistFromSpecRefusesDomain(t *testing.T) {
	for _, s := range []DistSpec{
		{"uniform", []float64{2, 1}},
		{"uniform", []float64{-1e308, 1e308}},
		{"exponential", []float64{0}},
		{"normal", []float64{0, -1}},
		{"lognormal", []float64{0, math.NaN()}},
		{"pareto", []float64{0, 1}},
		{"weibull", []float64{1, 0}},
		{"gamma", []float64{-5, 1}},
		{"deterministic", []float64{math.Inf(1)}},
		{"poisson", []float64{-1}},
		{"zipf", []float64{1.1, 0}},
		{"zipf", []float64{1.1, 1 << 40}},
		{"zipf", []float64{-2, 10}},
	} {
		if _, err := DistFromSpec(s.Name, s.Params); err == nil {
			t.Errorf("%s%v accepted", s.Name, s.Params)
		}
	}
	d := Gamma{Shape: 2, Rate: 3}
	spec := SpecOf(d)
	back, err := DistFromSpec(spec.Name, spec.Params)
	if err != nil || back != d {
		t.Errorf("gamma round trip: %v, %v", back, err)
	}
}

// TestEmpiricalJSONRefusesOverflowingSpread wants a sample whose range
// overflows a float64, where interpolation gives NaN, refused.
func TestEmpiricalJSONRefusesOverflowingSpread(t *testing.T) {
	var e Empirical
	if err := json.Unmarshal([]byte(`{"sample":[-1e308,1e308]}`), &e); err == nil {
		t.Fatal("decoded a sample spanning more than the float64 range")
	}
}
