package dcmodel

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestBuildTwinAllApproaches: every toolkit approach lowers to a working
// twin whose baseline answer (trained load, trained platform) is stable
// and sits above the no-contention demand floor.
func TestBuildTwinAllApproaches(t *testing.T) {
	tr := simulate(t, 1500, 20, 61)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatalf("%s: train: %v", a, err)
		}
		tw, err := BuildTwin(m, DefaultPlatform())
		if err != nil {
			t.Fatalf("%s: BuildTwin: %v", a, err)
		}
		if tw.Approach != a.String() {
			t.Errorf("%s: twin approach %q", a, tw.Approach)
		}
		if tw.Lambda <= 0 || tw.TotalDemand() <= 0 {
			t.Errorf("%s: degenerate twin lambda=%g demand=%g", a, tw.Lambda, tw.TotalDemand())
		}
		ans, err := tw.WhatIf(WhatIfQuery{})
		if err != nil {
			t.Fatalf("%s: WhatIf: %v", a, err)
		}
		if !ans.Stable {
			t.Errorf("%s: trained load should be stable, got %+v", a, ans)
		}
		if ans.MeanResponseSeconds < tw.TotalDemand() {
			t.Errorf("%s: response %g below demand floor %g", a, ans.MeanResponseSeconds, tw.TotalDemand())
		}
	}
}

// TestWhatIfOneShot: a twin built for one query answers it exactly as a
// long-lived twin that has already answered others — WhatIf leaves the
// compiled twin untouched, so building once and reusing it is safe.
func TestWhatIfOneShot(t *testing.T) {
	tr := simulate(t, 1200, 20, 62)
	m, err := Train(tr, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := BuildTwin(m, DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []WhatIfQuery{{}, {LoadFactor: 0.5}, {Users: 8, ThinkSeconds: 0.1}} {
		if _, err := reused.WhatIf(other); err != nil {
			t.Fatal(err)
		}
	}
	q := WhatIfQuery{LoadFactor: 2}
	viaReused, err := reused.WhatIf(q)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := BuildTwin(m, DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := oneShot.WhatIf(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaReused) {
		t.Fatalf("one-shot diverged: %+v vs %+v", direct, viaReused)
	}
}

// foreignModel is a Model implementation from outside the toolkit.
type foreignModel struct{}

func (foreignModel) Approach() Approach { return Approach(99) }
func (foreignModel) Synthesize(int, *rand.Rand) (*Trace, error) {
	return nil, errors.New("not implemented")
}
func (foreignModel) Characterize() string { return "foreign model" }
func (foreignModel) NumParams() int       { return 0 }
func (foreignModel) Save(io.Writer) error { return errors.New("not implemented") }

// TestBuildTwinUnsupported: foreign Model implementations are rejected
// with the ErrTwinUnsupported sentinel, and nil models with ErrBadConfig.
func TestBuildTwinUnsupported(t *testing.T) {
	if _, err := BuildTwin(foreignModel{}, DefaultPlatform()); !errors.Is(err, ErrTwinUnsupported) {
		t.Fatalf("foreign model: want ErrTwinUnsupported, got %v", err)
	}
	if _, err := BuildTwin(nil, DefaultPlatform()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil model: want ErrBadConfig, got %v", err)
	}
}
