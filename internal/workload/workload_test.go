package workload

import (
	"math"
	"math/rand"
	"testing"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func assertAscending(t *testing.T, times []float64) {
	t.Helper()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("times not ascending at %d: %g < %g", i, times[i], times[i-1])
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	r := rand.New(rand.NewSource(300))
	times := Poisson{Rate: 10}.Times(20000, r)
	if len(times) != 20000 {
		t.Fatalf("len = %d", len(times))
	}
	assertAscending(t, times)
	gaps := Interarrivals(times)
	approx(t, stats.Mean(gaps), 0.1, 0.005, "poisson mean gap")
	approx(t, stats.SquaredCoefVar(gaps), 1, 0.1, "poisson SCV")
	idc := stats.IndexOfDispersion(times, 1)
	approx(t, idc, 1, 0.15, "poisson IDC")
}

func TestDeterministicArrivals(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	times := Deterministic{Interval: 0.5}.Times(10, r)
	for i, tt := range times {
		approx(t, tt, 0.5*float64(i+1), 1e-12, "deterministic times")
	}
}

func TestMMPP2Burstier(t *testing.T) {
	r := rand.New(rand.NewSource(302))
	m := MMPP2{Rate: [2]float64{100, 2}, Hold: [2]float64{1, 1}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	times := m.Times(40000, r)
	assertAscending(t, times)
	gaps := Interarrivals(times)
	// MMPP interarrivals are hyperexponential-like: SCV > 1.
	if scv := stats.SquaredCoefVar(gaps); scv < 1.5 {
		t.Errorf("MMPP SCV = %g, want > 1.5", scv)
	}
	// Long-run rate close to occupancy-weighted mean.
	dur := times[len(times)-1]
	approx(t, float64(len(times))/dur, m.MeanRate(), 0.15*m.MeanRate(), "MMPP rate")
	if idc := stats.IndexOfDispersion(times, 1); idc < 3 {
		t.Errorf("MMPP IDC = %g, want >> 1", idc)
	}
}

func TestMMPP2Validate(t *testing.T) {
	if err := (MMPP2{Rate: [2]float64{0, 1}, Hold: [2]float64{1, 1}}).Validate(); err == nil {
		t.Error("zero rate should fail")
	}
	if err := (MMPP2{Rate: [2]float64{1, 1}, Hold: [2]float64{1, 0}}).Validate(); err == nil {
		t.Error("zero hold should fail")
	}
}

func TestSelfSimilarLRD(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	s := SelfSimilar{Sources: 32, OnRate: 40, MeanOn: 1, MeanOff: 2, Alpha: 1.4}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	times := s.Times(60000, r)
	if len(times) != 60000 {
		t.Fatalf("len = %d", len(times))
	}
	assertAscending(t, times)
	ss, err := stats.AnalyzeSelfSimilarity(times, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.HurstRS < 0.6 {
		t.Errorf("self-similar Hurst = %g, want > 0.6", ss.HurstRS)
	}
	if ss.IDCLong < 2 {
		t.Errorf("self-similar long-window IDC = %g, want >> 1", ss.IDCLong)
	}
	// Compare against Poisson at the same rate: Hurst should be clearly
	// higher.
	pt := Poisson{Rate: s.MeanRate()}.Times(60000, r)
	ps, err := stats.AnalyzeSelfSimilarity(pt, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.HurstRS <= ps.HurstRS+0.05 {
		t.Errorf("self-similar Hurst %g not above Poisson %g", ss.HurstRS, ps.HurstRS)
	}
}

func TestSelfSimilarValidate(t *testing.T) {
	base := SelfSimilar{Sources: 4, OnRate: 1, MeanOn: 1, MeanOff: 1, Alpha: 1.5}
	tests := []func(*SelfSimilar){
		func(s *SelfSimilar) { s.Sources = 0 },
		func(s *SelfSimilar) { s.OnRate = 0 },
		func(s *SelfSimilar) { s.MeanOn = 0 },
		func(s *SelfSimilar) { s.MeanOff = -1 },
		func(s *SelfSimilar) { s.Alpha = 1 },
		func(s *SelfSimilar) { s.Alpha = 5 },
	}
	for i, mutate := range tests {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base should validate: %v", err)
	}
}

func TestInterarrivals(t *testing.T) {
	if Interarrivals([]float64{1}) != nil {
		t.Error("single time should give nil")
	}
	gaps := Interarrivals([]float64{1, 3, 6})
	if len(gaps) != 2 || gaps[0] != 2 || gaps[1] != 3 {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestNewMixValidation(t *testing.T) {
	valid := []ClassSpec{{
		Name: "r", Weight: 1, Op: trace.OpRead,
		Size: stats.Deterministic{Value: 4096},
	}}
	if _, err := NewMix(valid); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	tests := []struct {
		name    string
		classes []ClassSpec
	}{
		{"empty", nil},
		{"negative weight", []ClassSpec{{Name: "x", Weight: -1, Op: trace.OpRead, Size: stats.Deterministic{Value: 1}}}},
		{"nil size", []ClassSpec{{Name: "x", Weight: 1, Op: trace.OpRead}}},
		{"bad op", []ClassSpec{{Name: "x", Weight: 1, Op: trace.OpNone, Size: stats.Deterministic{Value: 1}}}},
		{"bad seq prob", []ClassSpec{{Name: "x", Weight: 1, Op: trace.OpRead, Size: stats.Deterministic{Value: 1}, SequentialProb: 2}}},
		{"zero weights", []ClassSpec{{Name: "x", Weight: 0, Op: trace.OpRead, Size: stats.Deterministic{Value: 1}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMix(tt.classes); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMixPickProportions(t *testing.T) {
	r := rand.New(rand.NewSource(305))
	m, err := NewMix([]ClassSpec{
		{Name: "a", Weight: 3, Op: trace.OpRead, Size: stats.Deterministic{Value: 1}},
		{Name: "b", Weight: 1, Op: trace.OpWrite, Size: stats.Deterministic{Value: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a int
	const n = 40000
	for i := 0; i < n; i++ {
		if m.Pick(r) == 0 {
			a++
		}
	}
	approx(t, float64(a)/n, 0.75, 0.01, "mix proportions")
	approx(t, readShare(m), 0.75, 1e-12, "read share")
}

func TestBuiltinMixes(t *testing.T) {
	t2 := Table2Mix()
	if len(t2.Classes) != 2 || t2.Classes[0].Name != "read64K" || t2.Classes[1].Name != "write4M" {
		t.Errorf("table2 mix = %+v", t2.Classes)
	}
	if t2.Classes[0].Size.Mean() != 64<<10 || t2.Classes[1].Size.Mean() != 4<<20 {
		t.Error("table2 sizes wrong")
	}
	web := WebMix()
	approx(t, readShare(web), 0.8, 1e-12, "web mix read share")
}

// readShare is the weight share of a mix's read classes.
func readShare(m *Mix) float64 {
	var read, total float64
	for _, c := range m.Classes {
		total += c.Weight
		if c.Op == trace.OpRead {
			read += c.Weight
		}
	}
	return read / total
}
