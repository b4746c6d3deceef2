package power

import (
	"math"
	"math/rand"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// handTrace builds a 10-second trace with known busy times: CPU busy 2s,
// storage busy 5s.
func handTrace() *trace.Trace {
	return &trace.Trace{Requests: []trace.Request{
		{ID: 1, Arrival: 0, Spans: []trace.Span{
			{Subsystem: trace.CPU, Start: 0, Duration: 2},
			{Subsystem: trace.Storage, Start: 2, Duration: 5},
		}},
		{ID: 2, Arrival: 9, Spans: []trace.Span{
			{Subsystem: trace.Network, Start: 9, Duration: 1},
		}},
	}}
}

func TestEnergyHandComputed(t *testing.T) {
	sp := ServerPower{
		CPU:     Component{Idle: 10, Active: 20},
		Disk:    Component{Idle: 5, Active: 9},
		Memory:  Component{Idle: 2, Active: 4},
		Network: Component{Idle: 1, Active: 3},
	}
	b, err := Energy(handTrace(), 0, sp)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, b.Duration, 10, 1e-12, "duration")
	// CPU: 10W*10s + 10W*2s = 120 J.
	approx(t, b.EnergyJ[trace.CPU], 120, 1e-9, "cpu energy")
	// Disk: 5*10 + 4*5 = 70 J.
	approx(t, b.EnergyJ[trace.Storage], 70, 1e-9, "disk energy")
	// Memory idle only: 20 J. Network: 1*10 + 2*1 = 12 J.
	approx(t, b.EnergyJ[trace.Memory], 20, 1e-9, "memory energy")
	approx(t, b.EnergyJ[trace.Network], 12, 1e-9, "network energy")
	approx(t, b.TotalJ, 222, 1e-9, "total")
	approx(t, b.MeanPowerW, 22.2, 1e-9, "mean power")
	if b.Requests != 2 {
		t.Errorf("requests = %d", b.Requests)
	}
	approx(t, b.JoulesPerRequest, 111, 1e-9, "J/request")
}

func TestEnergyOverlappingSpansMerged(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{ID: 1, Arrival: 0, Spans: []trace.Span{
			{Subsystem: trace.CPU, Start: 0, Duration: 2},
		}},
		{ID: 2, Arrival: 1, Spans: []trace.Span{
			{Subsystem: trace.CPU, Start: 1, Duration: 2},
			{Subsystem: trace.Network, Start: 3, Duration: 1},
		}},
	}}
	sp := ServerPower{CPU: Component{Idle: 0, Active: 10},
		Disk: Component{}, Memory: Component{}, Network: Component{}}
	b, err := Energy(tr, 0, sp)
	if err != nil {
		t.Fatal(err)
	}
	// CPU busy 0..3 merged = 3s * 10W = 30 J (not 4s).
	approx(t, b.EnergyJ[trace.CPU], 30, 1e-9, "merged cpu energy")
}

func TestEnergyErrors(t *testing.T) {
	if _, err := Energy(nil, 0, BigCoreServer()); err == nil {
		t.Error("nil trace should fail")
	}
	bad := ServerPower{CPU: Component{Idle: 10, Active: 5}}
	if _, err := Energy(handTrace(), 0, bad); err == nil {
		t.Error("active < idle should fail")
	}
	zero := &trace.Trace{Requests: []trace.Request{{ID: 1}}}
	if _, err := Energy(zero, 0, BigCoreServer()); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestSmallCoreDrawsLessPower(t *testing.T) {
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: 1500,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Energy(tr, 0, BigCoreServer())
	if err != nil {
		t.Fatal(err)
	}
	small, err := Energy(tr, 0, SmallCoreServer())
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalJ >= big.TotalJ {
		t.Errorf("small-core energy %g not below big-core %g", small.TotalJ, big.TotalJ)
	}
	if small.JoulesPerRequest >= big.JoulesPerRequest {
		t.Error("small-core J/request should be lower")
	}
}
