package queueing

import (
	"errors"
	"math"
	"testing"

	"dcmodel/internal/errs"
)

// TestBadConfigSentinel pins the hardening contract: malformed solver
// inputs — negative demands, zero service rates, NaN/Inf parameters —
// come back as wrapped errs.ErrBadConfig, never as NaN/Inf results that
// would leak into JSON responses.
func TestBadConfigSentinel(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		err  func() error
	}{
		{"mm1 zero mu", func() error { _, err := NewMM1(1, 0); return err }},
		{"mm1 nan lambda", func() error { _, err := NewMM1(nan, 1); return err }},
		{"mm1 inf mu", func() error { _, err := NewMM1(1, inf); return err }},
		{"mmc zero servers", func() error { _, err := NewMMc(1, 2, 0); return err }},
		{"mmc nan mu", func() error { _, err := NewMMc(1, nan, 2); return err }},
		{"gg1 negative scv", func() error { _, err := NewGG1(1, -0.5, 0.1, 1); return err }},
		{"gg1 nan scv", func() error { _, err := NewGG1(1, nan, 0.1, 1); return err }},
		{"mva negative demand", func() error {
			_, err := MVA([]MVAStation{{Name: "d", Demand: -1}}, 4)
			return err
		}},
		{"mva nan demand", func() error {
			_, err := MVA([]MVAStation{{Name: "d", Demand: nan}}, 4)
			return err
		}},
		{"mva zero total demand", func() error {
			_, err := MVA([]MVAStation{{Name: "d", Demand: 0}}, 4)
			return err
		}},
		{"jackson zero mu", func() error {
			n := &JacksonNetwork{
				Nodes:   []JacksonNode{{Name: "a", Mu: 0, Servers: 1, External: 1}},
				Routing: [][]float64{{0}},
			}
			_, err := n.Solve()
			return err
		}},
		{"jackson nan routing", func() error {
			n := &JacksonNetwork{
				Nodes:   []JacksonNode{{Name: "a", Mu: 2, Servers: 1, External: 1}},
				Routing: [][]float64{{nan}},
			}
			_, err := n.Solve()
			return err
		}},
		{"jackson no external", func() error {
			n := &JacksonNetwork{
				Nodes:   []JacksonNode{{Name: "a", Mu: 2, Servers: 1}},
				Routing: [][]float64{{0}},
			}
			_, err := n.Solve()
			return err
		}},
		{"controller nan target", func() error { _, err := NewPIController(0.1, 0.1, nan); return err }},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap errs.ErrBadConfig", tc.name, err)
		}
		if errors.Is(err, ErrUnstable) {
			t.Errorf("%s: validation error %v must not claim instability", tc.name, err)
		}
	}
}

// TestUnstableDistinctFromBadConfig keeps the two error classes apart: an
// overloaded but well-formed queue is ErrUnstable, not ErrBadConfig.
func TestUnstableDistinctFromBadConfig(t *testing.T) {
	for name, err := range map[string]error{
		"mm1": func() error { _, err := NewMM1(2, 1); return err }(),
		"mmc": func() error { _, err := NewMMc(5, 1, 3); return err }(),
		"gg1": func() error { _, err := NewGG1(20, 1, 0.1, 1); return err }(),
	} {
		if !errors.Is(err, ErrUnstable) {
			t.Errorf("%s: overload error %v is not ErrUnstable", name, err)
		}
		if errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: overload error %v must not be ErrBadConfig", name, err)
		}
	}
	// An unstable Jackson node surfaces the node's ErrUnstable.
	n := &JacksonNetwork{
		Nodes:   []JacksonNode{{Name: "hot", Mu: 1, Servers: 1, External: 2}},
		Routing: [][]float64{{0}},
	}
	if _, err := n.Solve(); !errors.Is(err, ErrUnstable) {
		t.Errorf("jackson overload error %v is not ErrUnstable", err)
	}
}
