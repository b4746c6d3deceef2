package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestFitExponential(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	xs := Sample(Exponential{Rate: 2}, 50000, r)
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Rate, 2, 0.05, "exponential rate")
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := FitExponential([]float64{-1, -2}); err == nil {
		t.Error("negative-mean fit should fail")
	}
}

func TestFitNormal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := Sample(Normal{Mu: 5, Sigma: 3}, 50000, r)
	fit, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Mu, 5, 0.06, "normal mu")
	approx(t, fit.Sigma, 3, 0.06, "normal sigma")
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("short fit should fail")
	}
}

func TestFitLogNormal(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	xs := Sample(LogNormal{Mu: 1, Sigma: 0.7}, 50000, r)
	fit, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Mu, 1, 0.02, "lognormal mu")
	approx(t, fit.Sigma, 0.7, 0.02, "lognormal sigma")
	if _, err := FitLogNormal([]float64{1, -1}); err == nil {
		t.Error("nonpositive data should fail")
	}
}

func TestFitPareto(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	xs := Sample(Pareto{Xm: 2, Alpha: 1.8}, 50000, r)
	fit, err := FitPareto(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Xm, 2, 0.01, "pareto xm")
	approx(t, fit.Alpha, 1.8, 0.05, "pareto alpha")
	if _, err := FitPareto([]float64{3, 3, 3}); err == nil {
		t.Error("degenerate pareto fit should fail")
	}
}

func TestFitWeibull(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, want := range []Weibull{{K: 0.7, Lambda: 2}, {K: 1.5, Lambda: 3}, {K: 3, Lambda: 0.5}} {
		xs := Sample(want, 50000, r)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, fit.K, want.K, 0.05*want.K, "weibull shape")
		approx(t, fit.Lambda, want.Lambda, 0.05*want.Lambda, "weibull scale")
	}
}

func TestFitGamma(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, want := range []Gamma{{Shape: 0.8, Rate: 2}, {Shape: 3, Rate: 0.5}, {Shape: 10, Rate: 10}} {
		xs := Sample(want, 50000, r)
		fit, err := FitGamma(xs)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, fit.Shape, want.Shape, 0.07*want.Shape, "gamma shape")
		approx(t, fit.Rate, want.Rate, 0.08*want.Rate, "gamma rate")
	}
}

func TestFitUniform(t *testing.T) {
	fit, err := FitUniform([]float64{3, 7, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.A, 3, 1e-12, "uniform A")
	approx(t, fit.B, 7, 1e-12, "uniform B")
}

func TestFitBestRecoversFamily(t *testing.T) {
	// FitBest on data drawn from a known family should identify it (or an
	// indistinguishable neighbor).
	r := rand.New(rand.NewSource(16))
	tests := []struct {
		name    string
		src     Dist
		accept  map[string]bool
		samples int
	}{
		{"exponential", Exponential{Rate: 1}, map[string]bool{"exponential": true, "gamma": true, "weibull": true}, 5000},
		{"pareto", Pareto{Xm: 1, Alpha: 1.2}, map[string]bool{"pareto": true}, 5000},
		{"normal", Normal{Mu: 100, Sigma: 5}, map[string]bool{"normal": true, "gamma": true, "lognormal": true, "weibull": true}, 5000},
		{"lognormal", LogNormal{Mu: 0, Sigma: 1.5}, map[string]bool{"lognormal": true}, 5000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			xs := Sample(tt.src, tt.samples, r)
			best, err := FitBest(xs)
			if err != nil {
				t.Fatal(err)
			}
			if !tt.accept[best.Dist.Name()] {
				t.Errorf("FitBest picked %s (KS=%g), want one of %v", best.Dist.Name(), best.KS, tt.accept)
			}
		})
	}
}

func TestFitAllOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	xs := Sample(Exponential{Rate: 1}, 2000, r)
	results := FitAll(xs)
	if len(results) != 7 {
		t.Fatalf("FitAll returned %d results, want 7", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].KS < results[i-1].KS {
			t.Errorf("FitAll results not sorted at %d: %g < %g", i, results[i].KS, results[i-1].KS)
		}
	}
}

// TestFitAllAllocs: FitAll and FitBest sort the sample once for all seven
// families, so their allocation counts are a small constant — not one copy
// per family, and not a function of the sample size. (Both sizes are past
// radixMinLen, so both sorts run through the radix pass's recycled scratch.)
func TestFitAllAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	xs := Sample(Exponential{Rate: 20}, 8191, r)
	for _, fit := range []struct {
		name string
		fit  func([]float64)
	}{
		{"FitAll", func(xs []float64) { FitAll(xs) }},
		{"FitBest", func(xs []float64) { FitBest(xs) }},
	} {
		small := testing.AllocsPerRun(10, func() { fit.fit(xs[:2*radixMinLen]) })
		large := testing.AllocsPerRun(10, func() { fit.fit(xs) })
		if small != large {
			t.Errorf("%s allocations depend on the sample size: %v at %d, %v at 8191", fit.name, small, 2*radixMinLen, large)
		}
		// 7 boxed distributions, the result slice, the log samples of two
		// estimators, one sorted copy and, for FitBest, the shared bound.
		if large > 16 {
			t.Errorf("%s made %v allocations, want <= 16 (one sorted copy, not one per family)", fit.name, large)
		}
	}
}

// serialFitAll is FitAll as it was before the families were fitted side
// by side: one family after another, appended in order.
func serialFitAll(xs []float64) []FitResult {
	sorted := sortedCopy(xs)
	var results []FitResult
	for _, f := range fitters {
		d, err := f.fit(xs)
		if err != nil {
			results = append(results, FitResult{Err: fmt.Errorf("%s: %w", f.name, err), KS: math.Inf(1)})
			continue
		}
		ks := KSTestSorted(sorted, d)
		results = append(results, FitResult{Dist: d, KS: ks.Statistic, P: ks.P})
	}
	slices.SortStableFunc(results, func(a, b FitResult) int { return CompareLess(a.KS, b.KS) })
	return results
}

// TestFitAllMatchesSerial: fitting the families side by side returns what
// fitting them one after another did — the same fits, KS values and
// order, and on a sample some families cannot fit, the same errors with
// +Inf KS in the same stable order.
func TestFitAllMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	samples := map[string][]float64{
		"exponential": Sample(Exponential{Rate: 20}, 5000, r),
		"lognormal":   Sample(LogNormal{Mu: 1, Sigma: 0.5}, 3000, r),
		"negative":    Sample(Normal{Mu: 0, Sigma: 1}, 1000, r),
		"tiny":        {0.5, 1.5},
	}
	for name, xs := range samples {
		got, want := FitAll(xs), serialFitAll(xs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FitAll differs from the serial fit:\n got %v\nwant %v", name, got, want)
		}
		if name == "negative" && (want[len(want)-1].Err == nil || !math.IsInf(want[len(want)-1].KS, 1)) {
			t.Errorf("negative: expected positive-support families to fail last with +Inf KS")
		}
	}
}

func TestFitAllWithNegativeData(t *testing.T) {
	// Positive-support families must fail gracefully; normal/uniform fit.
	r := rand.New(rand.NewSource(18))
	xs := Sample(Normal{Mu: 0, Sigma: 1}, 1000, r)
	results := FitAll(xs)
	best := results[0]
	if best.Err != nil {
		t.Fatalf("no family fit gaussian data: %v", best.Err)
	}
	if best.Dist.Name() != "normal" {
		t.Errorf("best fit to standard gaussian = %s, want normal", best.Dist.Name())
	}
	var failures int
	for _, res := range results {
		if res.Err != nil {
			failures++
			if !math.IsInf(res.KS, 1) {
				t.Error("failed fit should carry +Inf KS")
			}
		}
	}
	if failures == 0 {
		t.Error("expected positive-support families to fail on negative data")
	}
}

func TestFitBestEmptySample(t *testing.T) {
	if _, err := FitBest(nil); err == nil {
		t.Error("FitBest(nil) should fail")
	}
}
