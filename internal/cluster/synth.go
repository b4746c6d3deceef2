package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/errs"
	"dcmodel/internal/markov"
	"dcmodel/internal/trace"
)

// Synthesis from the merged model. The model holds only exactly-mergeable
// sufficient statistics, so synthesis reconstructs spans from them: class
// mix by counts, phase walk from the subsystem chain, per-subsystem span
// sizes/durations from the log2 histograms (uniform within the chosen
// bucket), storage LBNs from the region chain (uniform within the
// region), CPU utilization and DRAM banks from their histograms, and
// Poisson arrivals at the observed aggregate rate. The output is
// deterministic for a given (model bytes, seed): any node holding the
// replicated global model synthesizes the identical trace.

// synthesizer is the frozen sampling state derived from a model.
type synthesizer struct {
	m          *Model
	classes    []string
	classCum   []int64
	classTotal int64
	phase      *markov.Chain
	storage    *markov.Chain // nil when no storage spans were observed
	rate       float64
}

// newSynthesizer freezes the model's counts into sampling form.
func (m *Model) newSynthesizer() (*synthesizer, error) {
	if m.requests == 0 {
		return nil, errs.ErrModelNotTrained
	}
	s := &synthesizer{m: m}
	s.classes = make([]string, 0, len(m.classes))
	for c := range m.classes {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	s.classCum = make([]int64, len(s.classes))
	for i, c := range s.classes {
		s.classTotal += m.classes[c]
		s.classCum[i] = s.classTotal
	}
	var err error
	if s.phase, err = m.phase.Chain(); err != nil {
		return nil, fmt.Errorf("cluster: phase chain: %w", err)
	}
	if m.storage.Sequences() > 0 {
		if s.storage, err = m.storage.Chain(); err != nil {
			return nil, fmt.Errorf("cluster: storage chain: %w", err)
		}
	}
	s.rate = 1000 // requests/s fallback for a single-instant trace
	if m.maxArrival > 0 {
		s.rate = float64(m.requests) / m.maxArrival
	}
	return s, nil
}

// cumPick draws an index from a cumulative int64 count vector.
func cumPick(cum []int64, total int64, r *rand.Rand) int {
	if total <= 0 {
		return 0
	}
	u := r.Int63n(total)
	return sort.Search(len(cum), func(i int) bool { return cum[i] > u })
}

// histPick draws a bucket index proportional to counts; ok reports
// whether the histogram holds any mass.
func histPick(counts []int64, r *rand.Rand) (bucket int, ok bool) {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	u := r.Int63n(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if u < cum {
			return i, true
		}
	}
	return len(counts) - 1, true
}

// log2Sample draws a value from a log2 bucket: bucket 0 is exactly 0,
// bucket k is uniform over [2^(k-1), 2^k).
func log2Sample(bucket int, r *rand.Rand) int64 {
	if bucket <= 0 {
		return 0
	}
	lo := int64(1) << (bucket - 1)
	return lo + r.Int63n(lo)
}

// Synthesize generates n requests from the model. The draw sequence is a
// fixed function of (model counts, seed), independent of how the model
// was assembled.
func (m *Model) Synthesize(n int, rng *rand.Rand) (*trace.Trace, error) {
	s, err := m.newSynthesizer()
	if err != nil {
		return nil, err
	}
	return s.synthesize(n, rng)
}

func (s *synthesizer) synthesize(n int, rng *rand.Rand) (*trace.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: synthesize needs n >= 1, got %d: %w", n, errs.ErrBadConfig)
	}
	m := s.m
	out := &trace.Trace{Requests: make([]trace.Request, 0, n)}
	var clock float64
	for i := 0; i < n; i++ {
		clock += rng.ExpFloat64() / s.rate
		req := trace.Request{
			ID:      int64(i),
			Class:   s.classes[cumPick(s.classCum, s.classTotal, rng)],
			Arrival: clock,
		}
		nPhases, _ := histPick(m.phaseLen[:], rng)
		start := clock
		phaseState, storageState := -1, -1
		for p := 0; p < nPhases; p++ {
			if phaseState < 0 {
				phaseState = s.phase.Start(rng)
			} else {
				phaseState = s.phase.Step(phaseState, rng)
			}
			sub := trace.Subsystem(phaseState)
			sp := trace.Span{Subsystem: sub, Start: start}
			if b, ok := histPick(m.durs[phaseState][:], rng); ok {
				sp.Duration = float64(log2Sample(b, rng)) / 1e9
			}
			if b, ok := histPick(m.sizes[phaseState][:], rng); ok {
				sp.Bytes = log2Sample(b, rng)
			}
			if b, ok := histPick(m.ops[phaseState][:], rng); ok {
				sp.Op = trace.Op(b)
			}
			switch sub {
			case trace.CPU:
				if b, ok := histPick(m.util[:], rng); ok {
					sp.Util = (float64(b) + rng.Float64()) / utilBuckets
				}
			case trace.Memory:
				if b, ok := histPick(m.banks[:], rng); ok {
					sp.Bank = b
				}
			case trace.Storage:
				region := 0
				if s.storage != nil {
					if storageState < 0 {
						storageState = s.storage.Start(rng)
					} else {
						storageState = s.storage.Step(storageState, rng)
					}
					region = storageState
				}
				sp.LBN = int64(region)*m.regions.Width + rng.Int63n(m.regions.Width)
			}
			start += sp.Duration
			req.Spans = append(req.Spans, sp)
		}
		out.Requests = append(out.Requests, req)
	}
	return out, nil
}

// ClassShare is one class's slice of the merged mix.
type ClassShare struct {
	Class string  `json:"class"`
	Count int64   `json:"count"`
	Share float64 `json:"share"`
}

// Summary is the /v1/characterize answer of a cluster node: the headline
// statistics of the merged global model.
type Summary struct {
	Requests           int64            `json:"requests"`
	Rate               float64          `json:"rate_rps"`
	ArrivalHorizon     float64          `json:"arrival_horizon_s"`
	Classes            []ClassShare     `json:"classes"`
	Spans              map[string]int64 `json:"spans"`
	PhaseTransitions   int64            `json:"phase_transitions"`
	StorageTransitions int64            `json:"storage_transitions"`
	StorageRegions     int              `json:"storage_regions"`
}

// Characterize summarizes the model.
func (m *Model) Characterize() Summary {
	s := Summary{
		Requests:           m.requests,
		ArrivalHorizon:     m.maxArrival,
		Spans:              make(map[string]int64, numSubsystems),
		PhaseTransitions:   m.phase.Transitions(),
		StorageTransitions: m.storage.Transitions(),
		StorageRegions:     m.cfg.StorageRegions,
	}
	if m.maxArrival > 0 {
		s.Rate = float64(m.requests) / m.maxArrival
	}
	classes := make([]string, 0, len(m.classes))
	var total int64
	for c, n := range m.classes {
		classes = append(classes, c)
		total += n
	}
	sort.Strings(classes)
	for _, c := range classes {
		share := 0.0
		if total > 0 {
			share = float64(m.classes[c]) / float64(total)
		}
		s.Classes = append(s.Classes, ClassShare{Class: c, Count: m.classes[c], Share: share})
	}
	for sub := 0; sub < numSubsystems; sub++ {
		var n int64
		for _, c := range m.durs[sub] {
			n += c
		}
		s.Spans[trace.Subsystem(sub).String()] = n
	}
	return s
}
