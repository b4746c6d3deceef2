// Package inbreadth implements the in-breadth modeling approach the paper
// surveys: four per-subsystem models (storage, CPU, memory, network)
// trained independently on the whole trace, with no notion of requests,
// classes or the order in which subsystems are exercised.
//
// Its strength is system-centric fidelity: each subsystem's marginal
// feature distributions are captured well, and each model can be used on
// its own for subsystem studies (e.g. the storage model for SSD-caching
// evaluation). Its documented weakness is "its inability to capture the
// time dependencies of a request as it progresses through the system",
// which "can result in invalid stressing of the system" — when forced to
// emit whole requests, it must assume an arbitrary phase order and
// uncorrelated per-subsystem features.
package inbreadth

import (
	"fmt"
	"math/rand"
	"slices"

	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Options configures training; the subsystem models reuse KOOZA's
// quantization parameters so comparisons are apples-to-apples.
type Options struct {
	// StorageRegions, CPUStates and Smoothing mirror kooza.Options.
	StorageRegions int
	CPUStates      int
	Smoothing      float64
	// DiskBlocks is the LBN address-space size (0 = infer).
	DiskBlocks int64
}

// Model is a trained in-breadth model: the four subsystem models, global
// (class-blind), plus the marginal span-count statistics needed to emit
// event streams.
type Model struct {
	// Subsystems holds the storage, CPU and memory Markov models, trained
	// on the union of all classes.
	kooza.Subsystems
	// Interarrival is the fitted arrival-process distribution.
	Interarrival stats.Dist
	// NetBytes is the marginal network-transfer-size distribution (all
	// network spans pooled).
	NetBytes *stats.Empirical
	// CPUBytes is the marginal CPU-processing-size distribution.
	CPUBytes *stats.Empirical
	// SpansPerRequest holds the mean number of spans per subsystem per
	// request, the only structural statistic an in-breadth model retains.
	SpansPerRequest map[trace.Subsystem]float64
	// TrainedOn is the number of training requests.
	TrainedOn int
	opts      Options
}

// Train fits the four subsystem models independently from the trace.
func Train(tr *trace.Trace, opts Options) (*Model, error) {
	p, err := trace.Prepare(tr)
	if err != nil {
		return nil, fmt.Errorf("inbreadth: %w", err)
	}
	return TrainPrepared(p, opts)
}

// TrainPrepared is Train on an input prepared once and shared with the
// other trainers. The in-breadth model is exactly KOOZA's three Markov
// subsystem models trained on the whole arrival-ordered trace, with the
// class structure and phase queues left out.
func TrainPrepared(p *trace.Prepared, opts Options) (*Model, error) {
	m := &Model{
		Interarrival:    p.Arrival.Dist,
		SpansPerRequest: make(map[trace.Subsystem]float64),
		TrainedOn:       len(p.Requests),
		opts:            opts,
	}
	nCPU := p.SpanCount(trace.CPU)
	samples := kooza.NewSubsystemSamples(p.SpanCount(trace.Storage), nCPU, p.SpanCount(trace.Memory))
	netBytes := make([]float64, 0, p.SpanCount(trace.Network))
	cpuBytes := make([]float64, 0, nCPU)
	var perRequest [4]float64
	for i := range p.Requests {
		spans := p.Requests[i].Spans
		for j := range spans {
			sp := &spans[j]
			switch sp.Subsystem {
			case trace.Network:
				netBytes = append(netBytes, float64(sp.Bytes))
			case trace.CPU:
				cpuBytes = append(cpuBytes, float64(sp.Bytes))
			}
			perRequest[sp.Subsystem] += 1 / float64(len(p.Requests))
			samples.Add(sp)
		}
	}
	for sub, v := range perRequest {
		if v > 0 {
			m.SpansPerRequest[trace.Subsystem(sub)] = v
		}
	}
	var err error
	m.Subsystems, err = samples.Train(kooza.Options{
		StorageRegions: opts.StorageRegions,
		CPUStates:      opts.CPUStates,
		Smoothing:      opts.Smoothing,
		DiskBlocks:     opts.DiskBlocks,
	})
	if err != nil {
		return nil, fmt.Errorf("inbreadth: %w", err)
	}
	if m.NetBytes, err = stats.NewEmpiricalOwning(netBytes); err != nil {
		return nil, fmt.Errorf("inbreadth: network sizes: %w", err)
	}
	if m.CPUBytes, err = stats.NewEmpiricalOwning(cpuBytes); err != nil {
		return nil, fmt.Errorf("inbreadth: cpu sizes: %w", err)
	}
	return m, nil
}

// NumParams reports the model complexity.
func (m *Model) NumParams() int {
	return m.Subsystems.NumParams() + len(m.Interarrival.Params()) + len(m.SpansPerRequest)
}

// assumedOrder is the arbitrary serial phase order the model must assume
// when asked for whole requests — it has no structural information, which
// is precisely the weakness the cross-examination quantifies.
var assumedOrder = []trace.Subsystem{trace.Storage, trace.Memory, trace.CPU, trace.Network}

// Synthesize emits n whole requests. Per-subsystem features come from the
// subsystem models (good marginals); the phase order is the assumed
// constant order and per-request cross-subsystem correlations are absent.
//
// A trained Model is read-only; concurrent Synthesize calls are safe as
// long as each call gets its own *rand.Rand.
func (m *Model) Synthesize(n int, r *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("inbreadth: synthesize needs n >= 1, got %d", n)
	}
	w := kooza.NewWalk(m.Subsystems, r)
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	// The per-request span counts are a model constant, so each arena
	// reservation covers a slab of requests exactly.
	counts := make([]int, len(assumedOrder))
	var total int
	for j, sub := range assumedOrder {
		counts[j] = int(m.SpansPerRequest[sub] + 0.5)
		total += counts[j]
	}
	var arena trace.SpanArena
	var now float64
	for i := 0; i < n; i++ {
		arena.ReserveSlab(i, n, total)
		now += max(m.Interarrival.Rand(r), 0)
		req := trace.Request{ID: int64(i), Class: "all", Arrival: now}
		req.Spans = arena.Take(total)
		for j, sub := range assumedOrder {
			for k := 0; k < counts[j]; k++ {
				req.Spans = append(req.Spans, m.span(&w, sub, now, r))
			}
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

// SynthesizeBatch is Synthesize under its former name, which the perf
// record still calls.
func (m *Model) SynthesizeBatch(n int, r *rand.Rand) (*trace.Trace, error) { return m.Synthesize(n, r) }

// span draws one span of subsystem sub: the subsystem models' walk gives
// storage, memory and utilization, the pooled marginals the byte counts of
// network and CPU spans.
func (m *Model) span(w *kooza.Walk, sub trace.Subsystem, start float64, r *rand.Rand) trace.Span {
	s := trace.Span{Subsystem: sub, Start: start}
	switch sub {
	case trace.Network:
		s.Bytes = int64(m.NetBytes.Rand(r))
	case trace.CPU:
		s.Bytes = int64(m.CPUBytes.Rand(r))
		s.Util = w.Util(r)
	case trace.Memory:
		s.Bank, s.Bytes, s.Op = w.Access(r)
	case trace.Storage:
		s.LBN, s.Bytes, s.Op = w.IO(r)
	}
	if s.Bytes < 0 {
		s.Bytes = 0
	}
	return s
}

// IOEvent is one storage I/O of a standalone storage stream.
type IOEvent struct {
	LBN   int64
	Bytes int64
	Op    trace.Op
}

// GenerateIOStream emits a standalone storage I/O stream — the in-breadth
// strength: a single subsystem model reused for storage studies (the SSD
// caching / defragmentation use cases of the paper's §5).
func (m *Model) GenerateIOStream(n int, r *rand.Rand) []IOEvent {
	w := kooza.NewWalk(m.Subsystems, r)
	out := make([]IOEvent, n)
	for i := range out {
		ev := &out[i]
		ev.LBN, ev.Bytes, ev.Op = w.IO(r)
	}
	return out
}

// IOStreamFromTrace extracts the original storage stream in time order,
// for like-for-like comparison with GenerateIOStream.
func IOStreamFromTrace(tr *trace.Trace) []IOEvent {
	type tio struct {
		start float64
		ev    IOEvent
	}
	var tmp []tio
	for _, r := range tr.Requests {
		for _, s := range r.SpansIn(trace.Storage) {
			tmp = append(tmp, tio{s.Start, IOEvent{LBN: s.LBN, Bytes: s.Bytes, Op: s.Op}})
		}
	}
	slices.SortFunc(tmp, func(a, b tio) int { return stats.CompareLess(a.start, b.start) })
	out := make([]IOEvent, len(tmp))
	for i, x := range tmp {
		out[i] = x.ev
	}
	return out
}

// Chains exposes the three Markov chains (introspection / scorecard).
func (m *Model) Chains() []*markov.Chain {
	return []*markov.Chain{m.Storage.Chain, m.CPU.Chain, m.Memory.Chain}
}
