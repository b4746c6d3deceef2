package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKSTestAcceptsTrueDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	d := Exponential{Rate: 1}
	xs := Sample(d, 2000, r)
	res := KSTest(xs, d)
	if res.Statistic < 0 || res.Statistic > 1 {
		t.Errorf("KS statistic %g out of [0,1]", res.Statistic)
	}
	if res.P < 0.01 {
		t.Errorf("KS rejected true distribution: p=%g", res.P)
	}
}

func TestKSTestRejectsWrongDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	xs := Sample(Exponential{Rate: 1}, 2000, r)
	res := KSTest(xs, Normal{Mu: 1, Sigma: 1})
	if res.P > 0.01 {
		t.Errorf("KS failed to reject wrong distribution: p=%g", res.P)
	}
}

func TestKSStatisticInUnitIntervalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := Sample(Gamma{Shape: 2, Rate: 1}, 50+r.Intn(200), r)
		res := KSTest(xs, Uniform{A: 0, B: 1})
		return res.Statistic >= 0 && res.Statistic <= 1 && res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKSTestEmpty(t *testing.T) {
	res := KSTest(nil, Exponential{Rate: 1})
	if res.P != 1 || res.Statistic != 0 {
		t.Errorf("empty KS = %+v, want zero statistic, p=1", res)
	}
}

func TestKSTest2SameSource(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	xs := Sample(LogNormal{Mu: 0, Sigma: 1}, 1500, r)
	ys := Sample(LogNormal{Mu: 0, Sigma: 1}, 1500, r)
	res := KSTest2(xs, ys)
	if res.P < 0.01 {
		t.Errorf("two-sample KS rejected same source: p=%g", res.P)
	}
}

func TestKSTest2DifferentSource(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	xs := Sample(LogNormal{Mu: 0, Sigma: 1}, 1500, r)
	ys := Sample(LogNormal{Mu: 0.5, Sigma: 1}, 1500, r)
	res := KSTest2(xs, ys)
	if res.P > 0.01 {
		t.Errorf("two-sample KS failed to reject shifted source: p=%g", res.P)
	}
}

func TestKSTest2Empty(t *testing.T) {
	if res := KSTest2(nil, []float64{1}); res.P != 1 {
		t.Errorf("empty two-sample KS p = %g, want 1", res.P)
	}
}

func TestKSTest2ExactSmall(t *testing.T) {
	// Disjoint samples: D must be 1.
	res := KSTest2([]float64{1, 2, 3}, []float64{10, 11, 12})
	approx(t, res.Statistic, 1, 1e-12, "disjoint D")
	// Identical samples: D must be 0.
	res = KSTest2([]float64{1, 2, 3}, []float64{1, 2, 3})
	approx(t, res.Statistic, 0, 1e-12, "identical D")
}

// TestKSSortedForms: the sorted-input forms give the results of the
// copying forms to the last bit, and leave their input alone.
func TestKSSortedForms(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	xs := Sample(LogNormal{Mu: 0, Sigma: 1}, 700, r)
	ys := Sample(Gamma{Shape: 2, Rate: 3}, 400, r)
	sx, sy := sortedCopy(xs), sortedCopy(ys)
	d := Weibull{K: 1.3, Lambda: 0.9}
	if got, want := KSTestSorted(sx, d), KSTest(xs, d); got != want {
		t.Errorf("KSTestSorted = %+v, KSTest = %+v", got, want)
	}
	if got, want := KSTest2Sorted(sx, sy), KSTest2(xs, ys); got != want {
		t.Errorf("KSTest2Sorted = %+v, KSTest2 = %+v", got, want)
	}
	if res := KSTestSorted(nil, d); res.P != 1 || res.Statistic != 0 {
		t.Errorf("empty sorted KS = %+v", res)
	}
	if res := KSTest2Sorted(sx, nil); res.P != 1 {
		t.Errorf("empty sorted two-sample KS = %+v", res)
	}
}

func TestChiSquareSF(t *testing.T) {
	// Known value: P(X^2_1 >= 3.841) ~ 0.05.
	approx(t, ChiSquareSF(3.841, 1), 0.05, 0.001, "chi2 critical 1df")
	approx(t, ChiSquareSF(0, 5), 1, 1e-12, "chi2 at 0")
}

func TestKolmogorovQ(t *testing.T) {
	approx(t, KolmogorovQ(0), 1, 1e-12, "Q(0)")
	// Known value: Q(1.36) ~ 0.049.
	approx(t, KolmogorovQ(1.36), 0.049, 0.002, "Q(1.36)")
	if q := KolmogorovQ(5); q > 1e-8 {
		t.Errorf("Q(5) = %g, want ~0", q)
	}
}

func TestGammaIncP(t *testing.T) {
	tests := []struct {
		a, x, want float64
	}{
		{1, 1, 1 - math.Exp(-1)},             // exponential CDF
		{1, 2, 1 - math.Exp(-2)},             //
		{0.5, 0.5, math.Erf(math.Sqrt(0.5))}, // chi2_1 at 1
		{5, 100, 1},
		{5, 0, 0},
	}
	for _, tt := range tests {
		approx(t, GammaIncP(tt.a, tt.x), tt.want, 1e-10, "GammaIncP")
	}
	for _, tt := range tests {
		approx(t, GammaIncQ(tt.a, tt.x), 1-tt.want, 1e-10, "GammaIncQ")
	}
	if !math.IsNaN(GammaIncP(-1, 1)) {
		t.Error("GammaIncP with a<=0 should be NaN")
	}
}

func TestDigammaTrigamma(t *testing.T) {
	const eulerGamma = 0.5772156649015329
	approx(t, Digamma(1), -eulerGamma, 1e-10, "psi(1)")
	approx(t, Digamma(2), 1-eulerGamma, 1e-10, "psi(2)")
	approx(t, Digamma(0.5), -eulerGamma-2*math.Ln2, 1e-10, "psi(1/2)")
	approx(t, Trigamma(1), math.Pi*math.Pi/6, 1e-10, "psi'(1)")
	if !math.IsNaN(Digamma(-1)) || !math.IsNaN(Trigamma(0)) {
		t.Error("digamma/trigamma outside domain should be NaN")
	}
}
