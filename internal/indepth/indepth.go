// Package indepth implements the in-depth modeling approach the paper
// surveys: a request-flow model in the style of Liu et al.'s 3-tier
// queueing model and Meisner et al.'s SQS. It traces each request through
// the system — fitting the arrival process and per-phase service-time
// distributions — and can therefore reproduce control flow and latency on
// the platform it was trained on.
//
// Its documented weakness is the mirror image of in-breadth's: "although
// accurate in capturing user behavior patterns, it does not capture the
// features of the workload in various subsystems" — synthetic requests
// carry no sizes, LBNs or banks, which blocks per-subsystem studies and
// any replay on a different platform.
package indepth

import (
	"fmt"
	"math/rand"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// ClassModel is the per-class request-flow model: the phase path and the
// fitted per-phase service-time distributions.
type ClassModel struct {
	// Name is the request-class label.
	Name string
	// Weight is the class's share of the request stream.
	Weight float64
	// Phases is the per-request path through the subsystems.
	Phases []trace.Subsystem
	// Service holds one empirical service-time distribution per phase.
	Service []*stats.Empirical
}

// Model is a trained in-depth model.
type Model struct {
	// Interarrival is the fitted arrival-process distribution.
	Interarrival stats.Dist
	// FitKS is the KS distance of the winning arrival fit.
	FitKS float64
	// Classes holds the per-class flow models.
	Classes []*ClassModel
	// TrainedOn is the number of training requests.
	TrainedOn int
}

// Train fits the in-depth model: the arrival process plus, per class, the
// modal phase path and per-phase service times.
func Train(tr *trace.Trace) (*Model, error) {
	p, err := trace.Prepare(tr)
	if err != nil {
		return nil, fmt.Errorf("indepth: %w", err)
	}
	return TrainPrepared(p)
}

// TrainPrepared is Train on an input prepared once and shared with the
// other trainers.
func TrainPrepared(p *trace.Prepared) (*Model, error) {
	m := &Model{Interarrival: p.Arrival.Dist, FitKS: p.Arrival.KS, TrainedOn: len(p.Requests)}
	for i := range p.Classes {
		pc := &p.Classes[i]
		cm, err := trainClass(pc, float64(len(pc.Requests))/float64(len(p.Requests)))
		if err != nil {
			return nil, fmt.Errorf("indepth: class %q: %w", pc.Name, err)
		}
		m.Classes = append(m.Classes, cm)
	}
	return m, nil
}

func trainClass(pc *trace.PreparedClass, weight float64) (*ClassModel, error) {
	paths := pc.Paths.Ranked()
	if len(paths) == 0 {
		return nil, fmt.Errorf("no spans")
	}
	// Modal phase sequence (copied: the prepared input is shared).
	modal := paths[0]
	phases := append([]trace.Subsystem(nil), modal.Phases...)
	cm := &ClassModel{Name: pc.Name, Weight: weight, Phases: phases}
	// Per-phase service times from the requests matching the modal path.
	backing := make([]float64, len(phases)*modal.Count)
	perPhase := make([][]float64, len(phases))
	for i := range perPhase {
		perPhase[i] = backing[i*modal.Count : i*modal.Count : (i+1)*modal.Count]
	}
	for i := range pc.Requests {
		spans := pc.Requests[i].Spans
		if !trace.PhasesMatch(spans, phases) {
			continue
		}
		for j := range spans {
			perPhase[j] = append(perPhase[j], spans[j].Duration)
		}
	}
	cm.Service = make([]*stats.Empirical, len(phases))
	for i, vals := range perPhase {
		emp, err := stats.NewEmpiricalOwning(vals)
		if err != nil {
			return nil, fmt.Errorf("phase %d has no service samples", i)
		}
		cm.Service[i] = emp
	}
	return cm, nil
}

// NumParams reports the model complexity — deliberately small: the
// simplicity that makes the in-depth technique "appealing for large-scale
// experiments".
func (m *Model) NumParams() int {
	n := len(m.Interarrival.Params())
	for _, c := range m.Classes {
		n += 1 + len(c.Phases) + len(c.Service)
	}
	return n
}

// Synthesize emits n requests: arrivals from the fitted process, phase
// paths from the class models, and span durations resampled from the
// fitted service-time distributions, queued through the same per-subsystem
// FIFO stations the system exhibits (this is a queueing model: request
// arrival plus contention is exactly what it emulates). Spans carry NO
// features — the approach does not model them.
//
// A trained Model is read-only (the FIFO-station state is per call);
// concurrent Synthesize calls are safe as long as each call gets its own
// *rand.Rand.
func (m *Model) Synthesize(n int, r *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("indepth: synthesize needs n >= 1, got %d", n)
	}
	if len(m.Classes) == 0 {
		return nil, fmt.Errorf("indepth: model has no classes")
	}
	weights := make([]float64, len(m.Classes))
	maxPhases := 0
	for i, c := range m.Classes {
		weights[i] = c.Weight
		maxPhases = max(maxPhases, len(c.Phases))
	}
	classAlias, err := stats.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("indepth: class weights: %w", err)
	}
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	var arena trace.SpanArena
	var now float64
	var freeAt [4]float64 // per-subsystem FIFO stations
	for i := 0; i < n; i++ {
		arena.ReserveSlab(i, n, maxPhases)
		now += max(m.Interarrival.Rand(r), 0)
		c := m.Classes[classAlias.Draw(r)]
		req := trace.Request{ID: int64(i), Class: c.Name, Arrival: now}
		req.Spans = arena.Take(len(c.Phases))
		t := now
		for p, sub := range c.Phases {
			dur := c.Service[p].Rand(r)
			if dur < 0 {
				dur = 0
			}
			start := t
			if int(sub) < len(freeAt) && freeAt[sub] > start {
				start = freeAt[sub]
			}
			req.Spans = append(req.Spans, trace.Span{Subsystem: sub, Start: start, Duration: dur})
			if int(sub) < len(freeAt) {
				freeAt[sub] = start + dur
			}
			t = start + dur
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

// SynthesizeBatch is Synthesize under its former name, which the perf
// record still calls.
func (m *Model) SynthesizeBatch(n int, r *rand.Rand) (*trace.Trace, error) { return m.Synthesize(n, r) }
