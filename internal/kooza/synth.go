package kooza

import (
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Synthesize generates n synthetic requests from the model: arrivals come
// from the network queueing model, each request's class is drawn from the
// class weights, and the request's spans follow the class's
// time-dependency queue with features emitted by the four subsystem
// models. Span durations are zero — the synthetic workload describes what
// to do, not how long it takes; timing comes from replaying it on a
// (simulated) platform. Span storage is reserved a slab of requests at a
// time, so large n costs few allocations.
//
// A trained Model is read-only: Synthesize keeps all walk state in
// per-call walkers and never mutates the model, so concurrent Synthesize
// calls on one Model are safe as long as each call gets its own
// *rand.Rand (see prand.New for derived streams).
func (m *Model) Synthesize(n int, r *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("kooza: synthesize needs n >= 1, got %d", n)
	}
	if len(m.Classes) == 0 {
		return nil, fmt.Errorf("kooza: model has no classes")
	}
	// Class picker: one alias build per call, then O(1) per request.
	weights := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		weights[i] = c.Weight
	}
	classAlias, err := stats.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("kooza: class weights: %w", err)
	}
	// Per-class walker state; construction draws each chain's start state,
	// in class order. The widest phase path any class (or queue variant)
	// can emit bounds the spans one request takes from the arena.
	walkers := make([]*classWalker, len(m.Classes))
	maxPhases := 0
	for i, c := range m.Classes {
		walkers[i] = newClassWalker(c, r)
		maxPhases = max(maxPhases, len(c.Phases))
		for qi := range c.Queues {
			maxPhases = max(maxPhases, len(c.Queues[qi].Phases))
		}
	}
	// Semi-Markov arrivals walk the gap-regime chain when there is one;
	// otherwise gaps come from the fitted interarrival distribution.
	gapChain := m.Network.GapChain
	gapState := 0
	if gapChain != nil {
		gapState = gapChain.Start(r)
	}
	tr := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	var arena trace.SpanArena
	var now float64
	for i := 0; i < n; i++ {
		arena.ReserveSlab(i, n, maxPhases)
		var gap float64
		if gapChain != nil {
			gapState = gapChain.Step(gapState, r)
			gap = m.Network.GapStates[gapState].Rand(r)
		} else {
			gap = m.Network.Interarrival.Rand(r)
		}
		now += max(gap, 0)
		ci := classAlias.Draw(r)
		tr.Requests = append(tr.Requests, walkers[ci].next(int64(i), now, r, &arena))
	}
	return tr, nil
}

// SynthesizeBatch is Synthesize under its former name, which the perf
// record still calls.
func (m *Model) SynthesizeBatch(n int, r *rand.Rand) (*trace.Trace, error) { return m.Synthesize(n, r) }

// classWalker carries the Markov walk state of one class across requests:
// its subsystem walk and its server and control-flow-path draws.
type classWalker struct {
	Walk
	c *ClassModel
	// servers and serverAlias implement the server-instancing draw.
	servers     []int
	serverAlias stats.Alias
	// queueAlias implements the per-request control-flow-path draw.
	queueAlias stats.Alias
}

func newClassWalker(c *ClassModel, r *rand.Rand) *classWalker {
	w := &classWalker{Walk: NewWalk(c.Subsystems, r), c: c}
	// Stable server order for determinism.
	for s := range c.ServerWeights {
		w.servers = append(w.servers, s)
	}
	sort.Ints(w.servers)
	if len(w.servers) > 0 {
		sw := make([]float64, len(w.servers))
		for i, s := range w.servers {
			sw[i] = c.ServerWeights[s]
		}
		w.serverAlias = stats.MustAlias(sw)
	}
	if len(c.Queues) > 0 {
		qw := make([]float64, len(c.Queues))
		for i, q := range c.Queues {
			qw[i] = q.Weight
		}
		w.queueAlias = stats.MustAlias(qw)
	}
	return w
}

func (w *classWalker) pickQueue(r *rand.Rand) *PhaseQueue {
	if w.queueAlias.Empty() {
		return nil
	}
	return &w.c.Queues[w.queueAlias.Draw(r)]
}

func (w *classWalker) pickServer(r *rand.Rand) int {
	if w.serverAlias.Empty() {
		return 0
	}
	return w.servers[w.serverAlias.Draw(r)]
}

// next synthesizes one request, carving its span slice from the arena.
func (w *classWalker) next(id int64, arrival float64, r *rand.Rand, arena *trace.SpanArena) trace.Request {
	c := w.c
	req := trace.Request{
		ID:      id,
		Class:   c.Name,
		Server:  w.pickServer(r),
		Arrival: arrival,
	}
	queue := w.pickQueue(r)
	phases := c.Phases
	var queueCPUBytes []*stats.Empirical
	if queue != nil {
		phases = queue.Phases
		queueCPUBytes = queue.CPUBytes
	}
	req.Spans = arena.Take(len(phases))
	var (
		sawNetwork int
		sawCPU     int
		cpuUtil    = w.Util(r)
	)
	for _, phase := range phases {
		span := trace.Span{Subsystem: phase, Start: arrival}
		switch phase {
		case trace.Network:
			if sawNetwork == 0 {
				span.Bytes = int64(c.NetIn.Rand(r))
			} else {
				span.Bytes = int64(c.NetOut.Rand(r))
			}
			sawNetwork++
		case trace.CPU:
			span.Util = cpuUtil
			if sawCPU < len(queueCPUBytes) && queueCPUBytes[sawCPU] != nil {
				span.Bytes = int64(queueCPUBytes[sawCPU].Rand(r))
			}
			sawCPU++
		case trace.Memory:
			span.Bank, span.Bytes, span.Op = w.Access(r)
		case trace.Storage:
			span.LBN, span.Bytes, span.Op = w.IO(r)
		}
		if span.Bytes < 0 {
			span.Bytes = 0
		}
		req.Spans = append(req.Spans, span)
	}
	return req
}
