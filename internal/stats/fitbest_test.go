package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/stats"
)

// fitBestSamples are the samples FitBest is held to FitAll on: draws from
// each candidate family, the arrival gaps of the six presets at seeds 1-3,
// a sample two families fit equally well, negative data and a constant.
func fitBestSamples(t *testing.T) map[string][]float64 {
	r := rand.New(rand.NewSource(21))
	out := map[string][]float64{}
	for _, d := range []stats.Dist{
		stats.Exponential{Rate: 20},
		stats.Normal{Mu: 5, Sigma: 1},
		stats.LogNormal{Mu: -3, Sigma: 0.8},
		stats.Pareto{Xm: 0.01, Alpha: 1.5},
		stats.Weibull{K: 0.7, Lambda: 0.05},
		stats.Gamma{Shape: 2, Rate: 40},
		stats.Uniform{A: 1, B: 2},
	} {
		out[d.Name()] = stats.Sample(d, 3000, r)
	}
	for _, name := range spec.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			out[fmt.Sprintf("%s gaps, seed %d", name, seed)] = presetTrace(t, name, 2000, seed).Interarrivals()
		}
	}
	// On {1, 2, 1, 2, ...} the normal and the lognormal fit standardize both
	// values to -1 and +1, so their KS distances are equal and the lowest of
	// the sample.
	tie := make([]float64, 400)
	for i := range tie {
		tie[i] = float64(1 + i%2)
	}
	out["tie"] = tie
	out["negative"] = stats.Sample(stats.Normal{Mu: -2, Sigma: 1}, 3000, r)
	out["constant"] = []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	return out
}

// TestFitBestMatchesFitAll holds FitBest to the head of FitAll bit for bit —
// family, parameters, KS distance and p-value — at one and two procs and
// over repeats, so that the families finish in different orders.
func TestFitBestMatchesFitAll(t *testing.T) {
	samples := fitBestSamples(t)
	if all := stats.FitAll(samples["tie"]); all[0].KS != all[1].KS {
		t.Fatalf("tie: the two best fits are %s %v and %s %v, want equal distances",
			all[0].Dist.Name(), all[0].KS, all[1].Dist.Name(), all[1].KS)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 4; rep++ {
			for name, xs := range samples {
				want := stats.FitAll(xs)[0]
				got, err := stats.FitBest(xs)
				if err != nil {
					t.Errorf("procs %d, %s: %v (FitAll's best: %v)", procs, name, err, want.Err)
					continue
				}
				if msg := sameFit(got, want); msg != "" {
					t.Errorf("procs %d, %s: FitBest %s", procs, name, msg)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// sameFit reports how got differs from want, bit for bit, or "".
func sameFit(got, want stats.FitResult) string {
	if got.Dist.Name() != want.Dist.Name() {
		return fmt.Sprintf("picked %s, FitAll %s", got.Dist.Name(), want.Dist.Name())
	}
	gp, wp := got.Dist.Params(), want.Dist.Params()
	if len(gp) != len(wp) {
		return fmt.Sprintf("has %d parameters, FitAll %d", len(gp), len(wp))
	}
	for i := range gp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			return fmt.Sprintf("parameter %d is %v, FitAll's %v", i, gp[i], wp[i])
		}
	}
	if math.Float64bits(got.KS) != math.Float64bits(want.KS) || math.Float64bits(got.P) != math.Float64bits(want.P) {
		return fmt.Sprintf("KS %v P %v, FitAll KS %v P %v", got.KS, got.P, want.KS, want.P)
	}
	return ""
}
