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
	// Storage, CPU and Memory are the three Markov subsystem models,
	// trained on the union of all classes.
	Storage *kooza.StorageModel
	CPU     *kooza.CPUModel
	Memory  *kooza.MemoryModel
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
	m.Storage, m.CPU, m.Memory, err = samples.Train(kooza.Options{
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
	return m.Storage.NumParams() + m.CPU.NumParams() + m.Memory.NumParams() +
		len(m.Interarrival.Params()) + len(m.SpansPerRequest)
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
	st := newWalker(m, r)
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	// The per-request span counts are a model constant, so the span slices
	// can be carved from an arena instead of growing one heap slice per
	// request.
	counts := make([]int, len(assumedOrder))
	var total int
	for j, sub := range assumedOrder {
		counts[j] = int(m.SpansPerRequest[sub] + 0.5)
		total += counts[j]
	}
	var arena trace.SpanArena
	var now float64
	for i := 0; i < n; i++ {
		gap := m.Interarrival.Rand(r)
		if gap < 0 {
			gap = 0
		}
		now += gap
		req := trace.Request{ID: int64(i), Class: "all", Arrival: now}
		req.Spans = arena.Take(total)
		for j, sub := range assumedOrder {
			for k := 0; k < counts[j]; k++ {
				req.Spans = append(req.Spans, st.span(sub, now, r))
			}
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

// synthSlabRequests mirrors kooza's batch granularity: each span-arena
// reservation covers this many requests at once.
const synthSlabRequests = 4096

// SynthesizeBatch is the batch flavor of Synthesize: same draw order, same
// seed in, byte-identical trace out. The per-request span count is a model
// constant here, so each arena reservation covers a whole slab of requests
// exactly, and the Interarrival interface dispatch is hoisted out of the
// loop.
func (m *Model) SynthesizeBatch(n int, r *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("inbreadth: synthesize needs n >= 1, got %d", n)
	}
	st := newWalker(m, r)
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	counts := make([]int, len(assumedOrder))
	var total int
	for j, sub := range assumedOrder {
		counts[j] = int(m.SpansPerRequest[sub] + 0.5)
		total += counts[j]
	}
	var arena trace.SpanArena
	inter := m.Interarrival
	var now float64
	for i := 0; i < n; i++ {
		if i%synthSlabRequests == 0 {
			slab := n - i
			if slab > synthSlabRequests {
				slab = synthSlabRequests
			}
			arena.Reserve(slab * total)
		}
		gap := inter.Rand(r)
		if gap < 0 {
			gap = 0
		}
		now += gap
		req := trace.Request{ID: int64(i), Class: "all", Arrival: now}
		req.Spans = arena.Take(total)
		for j, sub := range assumedOrder {
			for k := 0; k < counts[j]; k++ {
				req.Spans = append(req.Spans, st.span(sub, now, r))
			}
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}

// walker carries the Markov walk state across the synthetic stream.
type walker struct {
	m            *Model
	storageState int
	cpuState     int
	memBank      int
	lastEnd      int64
	hasLast      bool
}

func newWalker(m *Model, r *rand.Rand) *walker {
	w := &walker{m: m}
	if m.Storage.Chain != nil {
		w.storageState = m.Storage.Chain.Start(r)
	}
	w.cpuState = m.CPU.Chain.Start(r)
	w.memBank = m.Memory.Chain.Start(r)
	return w
}

func (w *walker) span(sub trace.Subsystem, start float64, r *rand.Rand) trace.Span {
	s := trace.Span{Subsystem: sub, Start: start}
	switch sub {
	case trace.Network:
		s.Bytes = int64(w.m.NetBytes.Rand(r))
	case trace.CPU:
		s.Bytes = int64(w.m.CPUBytes.Rand(r))
		s.Util = w.nextUtil(r)
	case trace.Memory:
		w.memBank = w.m.Memory.Chain.Step(w.memBank, r)
		s.Bank = w.memBank
		s.Bytes = int64(w.m.Memory.Sizes.Rand(r))
		if r.Float64() < w.m.Memory.ReadProb {
			s.Op = trace.OpRead
		} else {
			s.Op = trace.OpWrite
		}
	case trace.Storage:
		lbn, bytes := w.nextIO(r)
		s.LBN = lbn
		s.Bytes = bytes
		if r.Float64() < w.m.Storage.ReadProb {
			s.Op = trace.OpRead
		} else {
			s.Op = trace.OpWrite
		}
	}
	if s.Bytes < 0 {
		s.Bytes = 0
	}
	return s
}

func (w *walker) nextUtil(r *rand.Rand) float64 {
	c := w.m.CPU
	w.cpuState = c.Chain.Step(w.cpuState, r)
	if c.Levels[w.cpuState] == nil {
		mid := c.Lo + (c.Hi-c.Lo)*(float64(w.cpuState)+0.5)/float64(c.Chain.N)
		return clamp01(mid)
	}
	return clamp01(c.Levels[w.cpuState].Rand(r))
}

func (w *walker) nextIO(r *rand.Rand) (int64, int64) {
	s := w.m.Storage
	bytes := int64(s.Sizes.Rand(r))
	if bytes < 1 {
		bytes = 1
	}
	if w.hasLast && r.Float64() < s.SeqProb {
		lbn := w.lastEnd
		w.lastEnd = lbn + (bytes+4095)/4096
		return lbn, bytes
	}
	w.storageState = s.Chain.Step(w.storageState, r)
	lbn := w.sampleLBN(w.storageState, r)
	w.hasLast = true
	w.lastEnd = lbn + (bytes+4095)/4096
	return lbn, bytes
}

func (w *walker) sampleLBN(state int, r *rand.Rand) int64 {
	s := w.m.Storage
	if state >= 0 && state < len(s.StateLBNs) && s.StateLBNs[state] != nil {
		lbn := int64(s.StateLBNs[state].Rand(r))
		if lbn < 0 {
			lbn = 0
		}
		return lbn
	}
	lo := int64(state) * s.BlocksPerRegion
	return lo + int64(r.Float64()*float64(s.BlocksPerRegion))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
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
	w := newWalker(m, r)
	out := make([]IOEvent, n)
	for i := range out {
		lbn, bytes := w.nextIO(r)
		op := trace.OpWrite
		if r.Float64() < m.Storage.ReadProb {
			op = trace.OpRead
		}
		out[i] = IOEvent{LBN: lbn, Bytes: bytes, Op: op}
	}
	return out
}

// GenerateUtilSeries emits a standalone CPU-utilization series (Abrahao-
// style synthetic utilization patterns).
func (m *Model) GenerateUtilSeries(n int, r *rand.Rand) []float64 {
	w := newWalker(m, r)
	out := make([]float64, n)
	for i := range out {
		out[i] = w.nextUtil(r)
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
