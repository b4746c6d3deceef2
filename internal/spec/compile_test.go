package spec

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dcmodel/internal/workload"
)

func TestSpecBuildArrivals(t *testing.T) {
	cases := []struct {
		name string
		in   ArrivalSpec
		want workload.Arrivals
	}{
		{"poisson", ArrivalSpec{Process: "poisson", Rate: 20}, workload.Poisson{Rate: 20}},
		{"deterministic rate", ArrivalSpec{Process: "deterministic", Rate: 50}, workload.Deterministic{Interval: 0.02}},
		{"deterministic interval", ArrivalSpec{Process: "deterministic", Interval: 0.5}, workload.Deterministic{Interval: 0.5}},
		{"mmpp defaults", ArrivalSpec{Process: "mmpp", Rate: 20}, workload.DefaultMMPP(20)},
		{"mmpp overrides", ArrivalSpec{Process: "mmpp", Rate: 20, Rates: []float64{150, 10}, Holds: []float64{2, 6}},
			workload.MMPP2{Rate: [2]float64{150, 10}, Hold: [2]float64{2, 6}}},
		{"selfsimilar defaults", ArrivalSpec{Process: "selfsimilar", Rate: 90}, workload.DefaultSelfSimilar(90)},
		{"selfsimilar overrides", ArrivalSpec{Process: "selfsimilar", Rate: 90, Sources: 8, Alpha: 1.6},
			workload.SelfSimilar{Sources: 8, OnRate: 90.0 / 4, MeanOn: 1, MeanOff: 3, Alpha: 1.6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := BuildArrivals(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("got %#v, want %#v", got, tc.want)
			}
		})
	}

	bad := []struct {
		name     string
		in       ArrivalSpec
		wantPath string
	}{
		{"no process", ArrivalSpec{Rate: 5}, "process"},
		{"unknown process", ArrivalSpec{Process: "weibull", Rate: 5}, "process"},
		{"poisson no rate", ArrivalSpec{Process: "poisson"}, "rate"},
		{"mmpp one rate", ArrivalSpec{Process: "mmpp", Rate: 5, Rates: []float64{1}}, "rates"},
		{"mmpp bad holds", ArrivalSpec{Process: "mmpp", Rate: 5, Holds: []float64{1, -2}}, ""},
		{"selfsimilar bad alpha", ArrivalSpec{Process: "selfsimilar", Rate: 5, Alpha: 5}, ""},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildArrivals(tc.in)
			if err == nil {
				t.Fatalf("accepted %+v", tc.in)
			}
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("want *Error, got %T", err)
			}
			if tc.wantPath != "" && e.Path != tc.wantPath {
				t.Errorf("error path %q, want %q", e.Path, tc.wantPath)
			}
		})
	}
}

func TestSpecBuildDist(t *testing.T) {
	ok := []DistSpec{
		{Dist: "fixed", Value: 4096},
		{Dist: "lognormal", Mu: 9.5, Sigma: 1.2},
		{Dist: "pareto", Xm: 4096, Alpha: 1.3},
		{Dist: "exponential", Mean: 8192},
		{Dist: "uniform", A: 0, B: 65536},
		{Dist: "weibull", Shape: 1.5, Scale: 8192},
	}
	for _, d := range ok {
		if _, err := BuildDist(d); err != nil {
			t.Errorf("BuildDist(%+v): %v", d, err)
		}
	}
	bad := []DistSpec{
		{},
		{Dist: "zipf"},
		{Dist: "fixed", Value: 0},
		{Dist: "lognormal", Mu: 9.5},
		{Dist: "pareto", Xm: 4096, Alpha: 1},
		{Dist: "exponential"},
		{Dist: "uniform", A: 5, B: 5},
		{Dist: "weibull", Shape: 1.5},
	}
	for _, d := range bad {
		if _, err := BuildDist(d); err == nil {
			t.Errorf("BuildDist(%+v) accepted invalid spec", d)
		}
	}
}

func TestSpecValidatePaths(t *testing.T) {
	s := &Spec{
		Requests: 0,
		Phases:   []PhaseSpec{{Duration: -1, RateScale: 0}},
		Clients: []ClientSpec{
			{
				Name:     "a",
				SLO:      "gold",
				Arrivals: ArrivalSpec{Process: "poisson"},
				Mix: []ClassSpec{
					{Name: "", Weight: 0, Op: "scan", Size: DistSpec{Dist: "nope"}, Sequential: 2},
				},
			},
			{Name: "a", Arrivals: ArrivalSpec{Process: "poisson", Rate: 1}, Mix: []ClassSpec{{Name: "x", Weight: 1, Op: "read", Size: DistSpec{Dist: "fixed", Value: 1}}}},
		},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted a badly broken spec")
	}
	for _, path := range []string{
		"name", "requests",
		"phases[0].duration", "phases[0].rate_scale",
		"clients[0].slo", "clients[0].arrivals.rate",
		"clients[0].mix[0].name", "clients[0].mix[0].weight",
		"clients[0].mix[0].op", "clients[0].mix[0].size.dist",
		"clients[0].mix[0].sequential",
		"clients[1].name",
	} {
		if !strings.Contains(err.Error(), path) {
			t.Errorf("joined error misses path %q:\n%v", path, err)
		}
	}
}

func TestSpecClientQuota(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1}, []int{5, 5}},
		{10, []float64{3, 1}, []int{8, 2}},               // 7.5/2.5: equal remainders, lower index wins the leftover
		{7, []float64{1, 1, 1}, []int{3, 2, 2}},          // 2.33 each; first gets the leftover
		{5, []float64{1000, 1, 1, 1}, []int{2, 1, 1, 1}}, // min-1 floor steals from the max
		{3, []float64{1, 1, 1}, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		got := clientQuota(tc.total, tc.weights)
		sum := 0
		for _, q := range got {
			sum += q
		}
		if sum != tc.total {
			t.Errorf("quota(%d, %v) = %v does not sum to total", tc.total, tc.weights, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quota(%d, %v) = %v, want %v", tc.total, tc.weights, got, tc.want)
				break
			}
		}
	}
}

func TestSpecPhasedMapping(t *testing.T) {
	// Schedule: 10 s at 2x, then 10 s at 0.5x. Operational breakpoints at
	// 20 and 25; real at 10 and 20.
	phases := []PhaseSpec{{Duration: 10, RateScale: 2}, {Duration: 10, RateScale: 0.5}}
	p := Phased(base{}, phases, false).(*phased)
	cases := [][2]float64{
		{0, 0}, {10, 5}, {20, 10}, {22.5, 15}, {25, 20},
		{30, 25}, // past the schedule: nominal rate
	}
	for _, tc := range cases {
		if got := p.realTime(tc[0]); math.Abs(got-tc[1]) > 1e-12 {
			t.Errorf("realTime(%g) = %g, want %g", tc[0], got, tc[1])
		}
	}
	cyc := Phased(base{}, phases, true).(*phased)
	cycCases := [][2]float64{
		{25, 20}, {35, 25}, {45, 30}, {50, 40},
	}
	for _, tc := range cycCases {
		if got := cyc.realTime(tc[0]); math.Abs(got-tc[1]) > 1e-12 {
			t.Errorf("cycled realTime(%g) = %g, want %g", tc[0], got, tc[1])
		}
	}

	// Monotonicity across many points.
	prev := -1.0
	for tau := 0.0; tau < 120; tau += 0.37 {
		got := cyc.realTime(tau)
		if got <= prev {
			t.Fatalf("realTime not strictly increasing at tau=%g", tau)
		}
		prev = got
	}

	// Empty schedule is the identity wrapper.
	if got := Phased(base{}, nil, false); got != (base{}) {
		t.Errorf("empty schedule should return the base process unchanged")
	}
}

// base is a trivial deterministic Arrivals for phase tests.
type base struct{}

func (base) Times(n int, _ *rand.Rand) []float64 { return nil }

func TestSpecCompile(t *testing.T) {
	s, err := Preset("webtier")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 1 || c.Requests != 4000 || len(c.Clients) != 2 {
		t.Errorf("compiled header wrong: seed=%d requests=%d clients=%d", c.Seed, c.Requests, len(c.Clients))
	}
	if c.Cluster.Chunkservers != 4 || c.Cluster.CacheHitProb != 0.5 {
		t.Errorf("cluster overrides not applied: %+v", c.Cluster)
	}
	// 8:1 weights over 4000 -> 3556/444 by largest remainder.
	if c.Clients[0].Requests+c.Clients[1].Requests != 4000 {
		t.Errorf("client quotas do not sum: %d + %d", c.Clients[0].Requests, c.Clients[1].Requests)
	}
	if c.Clients[0].Requests <= c.Clients[1].Requests {
		t.Errorf("weight-8 client got fewer requests than weight-1: %d vs %d",
			c.Clients[0].Requests, c.Clients[1].Requests)
	}
	for _, cl := range c.Clients {
		if cl.Mix == nil || cl.Arrivals == nil {
			t.Fatalf("client %s not fully compiled", cl.Name)
		}
		for _, class := range cl.Mix.Classes {
			if !strings.HasPrefix(class.Name, cl.Name+"/") {
				t.Errorf("class %q not namespaced under client %q", class.Name, cl.Name)
			}
		}
	}
	// The spec-level schedule applies to clients without their own.
	if _, ok := c.Clients[0].Arrivals.(*phased); !ok {
		t.Errorf("spec-level phases not applied to client arrivals")
	}

	// Overrides.
	c2, err := s.Compile(Options{Requests: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Requests != 100 || c2.Seed != 9 {
		t.Errorf("options did not override: %d/%d", c2.Requests, c2.Seed)
	}

	// Too few requests for the client count.
	if _, err := s.Compile(Options{Requests: 1}); err == nil {
		t.Error("Compile accepted fewer requests than clients")
	}
}

func TestSpecDefaultSLOAndWeight(t *testing.T) {
	s := &Spec{
		Name: "t", Requests: 10,
		Clients: []ClientSpec{{
			Name:     "only",
			Arrivals: ArrivalSpec{Process: "poisson", Rate: 1},
			Mix:      []ClassSpec{{Name: "x", Weight: 1, Op: "read", Size: DistSpec{Dist: "fixed", Value: 64}}},
		}},
	}
	c, err := s.Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Clients[0].SLO != SLOBestEffort || c.Clients[0].Weight != 1 {
		t.Errorf("defaults not applied: %+v", c.Clients[0])
	}
	if c.Seed != 1 {
		t.Errorf("zero seed should default to 1, got %d", c.Seed)
	}
}

func TestSpecPresetsAllValid(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("want >= 6 presets, got %v", names)
	}
	for _, name := range names {
		s, err := Preset(name)
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("preset file %s declares name %q", name, s.Name)
		}
		if _, err := s.Compile(Options{}); err != nil {
			t.Errorf("preset %s does not compile: %v", name, err)
		}
	}
}
