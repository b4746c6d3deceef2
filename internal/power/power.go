// Package power derives energy and power estimates from workload traces —
// the paper's §5 applicability claim that a representative workload model
// "facilitates the advance to a performance and power model for the DC",
// enabling server-configuration studies (e.g. small-core vs big-core
// efficiency, Reddi et al.) without access to the application.
//
// The model is the standard linear utilization model: each subsystem draws
// idle power always and (active - idle) while busy; CPU active power
// scales further with the achieved utilization.
package power

import (
	"fmt"
	"sort"

	"dcmodel/internal/trace"
)

// Component is a two-point linear power model (Watts).
type Component struct {
	// Idle is the power drawn when the component is idle.
	Idle float64
	// Active is the power drawn while the component is busy.
	Active float64
}

// Validate reports a configuration error, if any.
func (c Component) Validate() error {
	if c.Idle < 0 || c.Active < c.Idle {
		return fmt.Errorf("power: component model [idle %g, active %g] invalid", c.Idle, c.Active)
	}
	return nil
}

// ServerPower bundles per-subsystem power models for one server.
type ServerPower struct {
	CPU     Component
	Disk    Component
	Memory  Component
	Network Component
}

// BigCoreServer returns a Xeon-class power model: hot idle, high peak.
func BigCoreServer() ServerPower {
	return ServerPower{
		CPU:     Component{Idle: 45, Active: 95},
		Disk:    Component{Idle: 5, Active: 11},
		Memory:  Component{Idle: 8, Active: 18},
		Network: Component{Idle: 3, Active: 6},
	}
}

// SmallCoreServer returns a mobile-core-class power model (the Reddi et
// al. configuration): far lower idle and peak power.
func SmallCoreServer() ServerPower {
	return ServerPower{
		CPU:     Component{Idle: 4, Active: 12},
		Disk:    Component{Idle: 5, Active: 11},
		Memory:  Component{Idle: 4, Active: 9},
		Network: Component{Idle: 3, Active: 6},
	}
}

// Validate validates all component models.
func (s ServerPower) Validate() error {
	for _, c := range []Component{s.CPU, s.Disk, s.Memory, s.Network} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s ServerPower) component(sub trace.Subsystem) Component {
	switch sub {
	case trace.CPU:
		return s.CPU
	case trace.Storage:
		return s.Disk
	case trace.Memory:
		return s.Memory
	default:
		return s.Network
	}
}

// Breakdown is the energy accounting of one server over a trace.
type Breakdown struct {
	// Duration is the accounted time span (seconds).
	Duration float64
	// EnergyJ holds per-subsystem energy in Joules (idle + active).
	EnergyJ map[trace.Subsystem]float64
	// TotalJ is the total energy.
	TotalJ float64
	// MeanPowerW is TotalJ / Duration.
	MeanPowerW float64
	// Requests is the number of requests attributed to the server.
	Requests int
	// JoulesPerRequest is TotalJ / Requests (0 when no requests).
	JoulesPerRequest float64
}

type interval struct{ start, end float64 }

// Energy computes the server's energy breakdown over the trace. Requests
// on other servers still contribute to the duration (the cluster is
// powered for the whole run) but not to this server's busy time.
func Energy(tr *trace.Trace, server int, sp ServerPower) (Breakdown, error) {
	if tr == nil || tr.Len() == 0 {
		return Breakdown{}, trace.ErrEmptyTrace
	}
	if err := sp.Validate(); err != nil {
		return Breakdown{}, err
	}
	var duration float64
	busy := make(map[trace.Subsystem][]interval)
	var requests int
	for _, r := range tr.Requests {
		if end := r.Arrival + r.Latency(); end > duration {
			duration = end
		}
		if r.Server != server {
			continue
		}
		requests++
		for _, s := range r.Spans {
			busy[s.Subsystem] = append(busy[s.Subsystem], interval{s.Start, s.End()})
		}
	}
	if duration <= 0 {
		return Breakdown{}, fmt.Errorf("power: trace has zero duration")
	}
	b := Breakdown{
		Duration: duration,
		EnergyJ:  make(map[trace.Subsystem]float64),
		Requests: requests,
	}
	for _, sub := range trace.Subsystems() {
		comp := sp.component(sub)
		var busyTime float64
		for _, iv := range merge(busy[sub]) {
			busyTime += iv.end - iv.start
		}
		e := comp.Idle*duration + (comp.Active-comp.Idle)*busyTime
		b.EnergyJ[sub] = e
		b.TotalJ += e
	}
	b.MeanPowerW = b.TotalJ / duration
	if requests > 0 {
		b.JoulesPerRequest = b.TotalJ / float64(requests)
	}
	return b, nil
}

func merge(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
