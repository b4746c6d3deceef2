package stats

import (
	"math"
	"math/rand"
	"testing"
)

func poissonArrivals(rate float64, n int, r *rand.Rand) []float64 {
	arr := make([]float64, n)
	var t float64
	for i := range arr {
		t += r.ExpFloat64() / rate
		arr[i] = t
	}
	return arr
}

func TestIndexOfDispersionPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	arr := poissonArrivals(10, 50000, r)
	idc := IndexOfDispersion(arr, 1)
	approx(t, idc, 1, 0.1, "Poisson IDC")
}

func TestIndexOfDispersionBursty(t *testing.T) {
	// An on/off bursty process has IDC >> 1.
	r := rand.New(rand.NewSource(44))
	var arr []float64
	var now float64
	for burst := 0; burst < 500; burst++ {
		for i := 0; i < 100; i++ {
			now += r.ExpFloat64() / 100 // fast arrivals in burst
			arr = append(arr, now)
		}
		now += 10 + r.ExpFloat64()*5 // long off period
	}
	idc := IndexOfDispersion(arr, 1)
	if idc < 5 {
		t.Errorf("bursty IDC = %g, want >> 1", idc)
	}
	if !math.IsNaN(IndexOfDispersion(nil, 1)) {
		t.Error("empty IDC should be NaN")
	}
}

func TestCountsInWindows(t *testing.T) {
	arr := []float64{0, 0.5, 0.9, 1.1, 2.5}
	counts := CountsInWindows(arr, 1)
	want := []float64{3, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %g, want %g", i, counts[i], want[i])
		}
	}
	if CountsInWindows(nil, 1) != nil || CountsInWindows(arr, 0) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

func TestPeakToMean(t *testing.T) {
	arr := []float64{0, 0.1, 0.2, 1.5, 2.5}
	// windows: [0,1): 3, [1,2): 1, [2,3): 1 → mean 5/3, peak 3.
	approx(t, PeakToMean(arr, 1), 3/(5.0/3.0), 1e-12, "peak-to-mean")
	if !math.IsNaN(PeakToMean(nil, 1)) {
		t.Error("empty peak-to-mean should be NaN")
	}
}

func TestHurstWhiteNoise(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	xs := Sample(Normal{Mu: 0, Sigma: 1}, 8192, r)
	h, err := HurstRS(xs)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.4 || h > 0.65 {
		t.Errorf("white-noise Hurst (R/S) = %g, want ~0.5", h)
	}
	hv, err := HurstAggVar(xs)
	if err != nil {
		t.Fatal(err)
	}
	if hv < 0.35 || hv > 0.65 {
		t.Errorf("white-noise Hurst (aggvar) = %g, want ~0.5", hv)
	}
}

// fgnLike produces a long-range-dependent series by superposing AR(1)
// components at multiple timescales (an approximation of fractional
// Gaussian noise adequate to drive the estimators above 0.5).
func fgnLike(n int, r *rand.Rand) []float64 {
	xs := make([]float64, n)
	phis := []float64{0.5, 0.9, 0.99, 0.999}
	states := make([]float64, len(phis))
	for i := 0; i < n; i++ {
		var v float64
		for j, phi := range phis {
			states[j] = phi*states[j] + r.NormFloat64()*math.Sqrt(1-phi*phi)
			v += states[j]
		}
		xs[i] = v
	}
	return xs
}

func TestHurstLongRangeDependence(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	xs := fgnLike(16384, r)
	h, err := HurstRS(xs)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.65 {
		t.Errorf("LRD Hurst (R/S) = %g, want > 0.65", h)
	}
	hv, err := HurstAggVar(xs)
	if err != nil {
		t.Fatal(err)
	}
	if hv < 0.6 {
		t.Errorf("LRD Hurst (aggvar) = %g, want > 0.6", hv)
	}
}

func TestHurstShortSample(t *testing.T) {
	if _, err := HurstRS(make([]float64, 10)); err == nil {
		t.Error("short HurstRS should fail")
	}
	if _, err := HurstAggVar(make([]float64, 10)); err == nil {
		t.Error("short HurstAggVar should fail")
	}
}

func TestAnalyzeSelfSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	arr := poissonArrivals(20, 20000, r)
	ss, err := AnalyzeSelfSimilarity(arr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.HurstRS > 0.7 {
		t.Errorf("Poisson arrivals HurstRS = %g, want ~0.5", ss.HurstRS)
	}
	if ss.IDCShort > 1.5 {
		t.Errorf("Poisson IDC = %g, want ~1", ss.IDCShort)
	}
	if _, err := AnalyzeSelfSimilarity([]float64{1, 2}, 1); err == nil {
		t.Error("short self-similarity analysis should fail")
	}
}
