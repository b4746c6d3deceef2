package queueing

import (
	"errors"
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestMM1KnownValues(t *testing.T) {
	q, err := NewMM1(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, q.Utilization(), 0.5, 1e-12, "rho")
	approx(t, q.MeanJobs(), 1, 1e-12, "L")
	approx(t, q.MeanResponse(), 2, 1e-12, "W")
	approx(t, q.MeanWait(), 1, 1e-12, "Wq")
	// Little's law: L = lambda W.
	approx(t, q.MeanJobs(), q.Lambda*q.MeanResponse(), 1e-12, "Little")
}

func TestMM1Errors(t *testing.T) {
	if _, err := NewMM1(1, 1); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated M/M/1 err = %v, want ErrUnstable", err)
	}
	if _, err := NewMM1(-1, 1); err == nil {
		t.Error("negative lambda should fail")
	}
	if _, err := NewMM1(1, 0); err == nil {
		t.Error("zero mu should fail")
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	q1, _ := NewMM1(0.7, 1)
	qc, err := NewMMc(0.7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, qc.MeanResponse(), q1.MeanResponse(), 1e-12, "c=1 response")
	approx(t, qc.MeanWait(), q1.MeanWait(), 1e-12, "c=1 wait")
	// Erlang-C with c=1 equals rho.
	approx(t, qc.ErlangC(), 0.7, 1e-12, "c=1 erlangC")
}

func TestMMcKnownValue(t *testing.T) {
	// Classic example: lambda=2, mu=1.2, c=2: rho=5/6,
	// ErlangC = 0.7576..., Wq = ErlangC/(c mu - lambda).
	q, err := NewMMc(2, 1.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, q.Utilization(), 5.0/6, 1e-12, "rho")
	approx(t, q.ErlangC(), 25.0/33, 1e-9, "erlangC")
	approx(t, q.MeanWait(), (25.0/33)/0.4, 1e-9, "Wq")
	approx(t, q.MeanJobs(), q.Lambda*q.MeanResponse(), 1e-12, "Little")
}

func TestMMcMoreServersLessWaiting(t *testing.T) {
	prev := math.Inf(1)
	for c := 1; c <= 6; c++ {
		q, err := NewMMc(0.9, 1, c)
		if err != nil {
			t.Fatal(err)
		}
		if w := q.MeanWait(); w >= prev {
			t.Errorf("wait with %d servers = %g, not below %g", c, w, prev)
		} else {
			prev = w
		}
	}
}

func TestMMcErrors(t *testing.T) {
	if _, err := NewMMc(2, 1, 2); !errors.Is(err, ErrUnstable) {
		t.Error("saturated M/M/c should be unstable")
	}
	if _, err := NewMMc(1, 1, 0); err == nil {
		t.Error("c=0 should fail")
	}
}

func TestGG1ReducesToMM1AndMG1(t *testing.T) {
	// Poisson arrivals (Ca^2 = 1), exponential service (Cs^2 = 1):
	// Kingman is exact and equals M/M/1.
	q1, _ := NewMM1(0.6, 1)
	gg, err := NewGG1(0.6, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, gg.MeanWait(), q1.MeanWait(), 1e-12, "Kingman = M/M/1")
	// Poisson arrivals, deterministic service: Kingman is exact and
	// equals the Pollaczek-Khinchine M/D/1 wait rho*S / (2 (1 - rho)).
	ggd, err := NewGG1(0.6, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ggd.MeanWait(), 0.6/(2*0.4), 1e-12, "Kingman = M/D/1")
	approx(t, ggd.Utilization(), 0.6, 1e-12, "rho")
	approx(t, ggd.MeanResponse(), ggd.MeanWait()+1, 1e-12, "response")
}

func TestGG1VariabilityIncreasesWait(t *testing.T) {
	prev := -1.0
	for _, scv := range []float64{0, 0.5, 1, 2, 4} {
		q, err := NewGG1(0.5, scv, 1, scv)
		if err != nil {
			t.Fatal(err)
		}
		if w := q.MeanWait(); w <= prev {
			t.Errorf("wait at SCV %g = %g, not above %g", scv, w, prev)
		} else {
			prev = w
		}
	}
}

func TestGG1Errors(t *testing.T) {
	if _, err := NewGG1(1, 1, 1, 1); !errors.Is(err, ErrUnstable) {
		t.Error("rho=1 G/G/1 should be unstable")
	}
	if _, err := NewGG1(-1, 1, 1, 1); err == nil {
		t.Error("negative lambda should fail")
	}
	if _, err := NewGG1(0.5, -1, 1, 1); err == nil {
		t.Error("negative SCV should fail")
	}
}
