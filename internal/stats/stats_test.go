package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, 2, -4, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean(%v) = %g, want %g", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"constant", []float64{2, 2, 2}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 32.0 / 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			approx(t, Variance(tt.xs), tt.want, 1e-12, "Variance")
		})
	}
}

func TestPopVariance(t *testing.T) {
	approx(t, PopVariance([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 4, 1e-12, "PopVariance")
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g, want 7", got)
	}
	if got := Sum(xs); got != 9 {
		t.Errorf("Sum = %g, want 9", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +Inf/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		approx(t, Quantile(xs, tt.p), tt.want, 1e-12, "Quantile")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty sample should be NaN")
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 0.01, 0.33, 0.5, 0.9, 0.999, 1} {
		approx(t, QuantileSorted(sorted, p), Quantile(xs, p), 1e-12, "QuantileSorted")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		xs := make([]float64, 20+rr.Intn(50))
		for i := range xs {
			xs[i] = rr.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Quantile(xs, p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCoefVar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	approx(t, CoefVar(xs), 1, 0.03, "exponential CV")
	approx(t, SquaredCoefVar(xs), 1, 0.06, "exponential SCV")
	if !math.IsNaN(CoefVar([]float64{0, 0})) {
		t.Error("CoefVar of zero-mean sample should be NaN")
	}
}

func TestRelError(t *testing.T) {
	tests := []struct {
		want, got, expect float64
	}{
		{100, 110, 0.1},
		{100, 90, 0.1},
		{0, 0.5, 0.5},
		{-10, -11, 0.1},
	}
	for _, tt := range tests {
		approx(t, RelError(tt.want, tt.got), tt.expect, 1e-12, "RelError")
	}
}
