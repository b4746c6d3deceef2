package fault

import (
	"errors"
	"math"
	"sync"
	"testing"

	"dcmodel/internal/errs"
)

func scenario() Config {
	return Config{MTBF: 10, MTTR: 0.5, Seed: 7}
}

// downtime lists a rackless server's down windows that start before
// horizon, read through NextFailure and NextUp.
func downtime(s *Schedule, server int, horizon float64) []Interval {
	var out []Interval
	for t := 0.0; ; {
		start := s.NextFailure(server, t)
		if start >= horizon {
			return out
		}
		t = s.NextUp(server, start)
		out = append(out, Interval{Start: start, End: t})
	}
}

// TestScheduleDeterministic: two schedules from the same (cfg, stream) give
// identical histories, regardless of query order or concurrency.
func TestScheduleDeterministic(t *testing.T) {
	const servers, horizon = 8, 500.0
	a, err := NewSchedule(scenario(), servers, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchedule(scenario(), servers, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Query b concurrently and out of order first, then compare the full
	// interval lists: lazy extension must not depend on query order.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				srv := (i*7 + w) % servers
				tm := math.Mod(float64(i)*13.7+float64(w)*101, horizon)
				b.DownAt(srv, tm)
				b.NextUp(srv, tm)
			}
		}(w)
	}
	wg.Wait()
	for srv := 0; srv < servers; srv++ {
		ia := downtime(a, srv, horizon)
		ib := downtime(b, srv, horizon)
		if len(ia) != len(ib) {
			t.Fatalf("server %d: %d vs %d intervals", srv, len(ia), len(ib))
		}
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatalf("server %d interval %d: %+v vs %+v", srv, k, ia[k], ib[k])
			}
		}
	}
}

// TestStreamsIndependent: distinct streams of one scenario give distinct
// histories (the per-shard isolation property).
func TestStreamsIndependent(t *testing.T) {
	a, _ := NewSchedule(scenario(), 1, 0)
	b, _ := NewSchedule(scenario(), 1, 1)
	ia, ib := downtime(a, 0, 1000), downtime(b, 0, 1000)
	if len(ia) == 0 || len(ib) == 0 {
		t.Fatal("expected downtime in 1000s at MTBF 10s")
	}
	if len(ia) == len(ib) && ia[0] == ib[0] {
		t.Fatal("streams 0 and 1 produced the same first interval")
	}
}

// TestAvailabilityBallpark: long-run unavailability approaches
// MTTR/(MTBF+MTTR).
func TestAvailabilityBallpark(t *testing.T) {
	cfg := Config{MTBF: 5, MTTR: 1, Seed: 11}
	s, err := NewSchedule(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 200000.0
	var down float64
	for _, iv := range downtime(s, 0, horizon) {
		end := math.Min(iv.End, horizon)
		down += end - iv.Start
	}
	got := down / horizon
	want := cfg.MTTR / (cfg.MTBF + cfg.MTTR)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("unavailability %.4f, want %.4f +- 0.02", got, want)
	}
}

// TestNextUp: NextUp lands strictly outside every down window.
func TestNextUp(t *testing.T) {
	s, err := NewSchedule(Config{MTBF: 2, MTTR: 1, RackSize: 2, Seed: 3}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for srv := 0; srv < 4; srv++ {
		for i := 0; i < 500; i++ {
			tm := float64(i) * 0.37
			up := s.NextUp(srv, tm)
			if up < tm {
				t.Fatalf("NextUp(%d, %g) = %g went backwards", srv, tm, up)
			}
			if s.DownAt(srv, up) {
				t.Fatalf("server %d still down at NextUp time %g", srv, up)
			}
		}
	}
}

// TestRackCorrelation: with racks armed, a rack failure takes down every
// server of the rack at once.
func TestRackCorrelation(t *testing.T) {
	cfg := Config{MTBF: 1e9, MTTR: 1, RackSize: 4, RackMTBF: 10, RackMTTR: 2, Seed: 5}
	s, err := NewSchedule(cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Per-server MTBF is effectively infinite, so any downtime is rack
	// downtime; scan for an instant where server 0 is down and check its
	// whole rack shares it while the other rack does not necessarily.
	found := false
	for i := 0; i < 100000 && !found; i++ {
		tm := float64(i) * 0.01
		if s.DownAt(0, tm) {
			found = true
			for srv := 0; srv < 4; srv++ {
				if !s.DownAt(srv, tm) {
					t.Fatalf("rack failure at t=%g missed server %d", tm, srv)
				}
			}
		}
	}
	if !found {
		t.Fatal("no rack failure observed in 1000s at rack MTBF 10s")
	}
}

func TestValidate(t *testing.T) {
	cases := []Config{
		{},                  // zero MTBF/MTTR
		{MTBF: -1, MTTR: 1}, // negative MTBF
		{MTBF: 1, MTTR: 0},  // zero MTTR
		{MTBF: 1, MTTR: 1, Seed: -4},
		{MTBF: 1, MTTR: 1, Timeout: -1},
		{MTBF: 1, MTTR: 1, RackSize: -2},
	}
	for i, c := range cases {
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if !errors.Is(err, errs.ErrBadConfig) {
			t.Fatalf("case %d: error %v does not wrap ErrBadConfig", i, err)
		}
	}
	if err := scenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if _, err := NewSchedule(scenario(), 0, 0); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("0 servers: %v", err)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{MTBF: 10, MTTR: 1, RackSize: 4}.WithDefaults()
	if c.Timeout != DefaultTimeout || c.Backoff != DefaultBackoff || c.RereplBytes != DefaultRereplBytes {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.RackMTBF != 80 || c.RackMTTR != 1 || c.Seed != 1 {
		t.Fatalf("rack/seed defaults not applied: %+v", c)
	}
	if d := (Config{MTBF: 1, MTTR: 1, RereplBytes: -1}).WithDefaults(); d.RereplBytes != 0 {
		t.Fatalf("negative RereplBytes should disable, got %d", d.RereplBytes)
	}
}
