package kooza

import (
	"fmt"
	"math/rand"

	"dcmodel/internal/trace"
)

// Regions is the storage model's LBN quantization: N regions of Width
// blocks each, the last one also holding every block past the end of the
// disk and the first every LBN below it.
type Regions struct {
	N     int
	Width int64
}

// NewRegions splits a disk of diskBlocks blocks into n regions of equal
// width, at least one block wide. n must be positive.
func NewRegions(diskBlocks int64, n int) Regions {
	return Regions{N: n, Width: max(diskBlocks/int64(n), 1)}
}

// Of returns the region of lbn.
func (g Regions) Of(lbn int64) int {
	if lbn < 0 {
		return 0
	}
	if s := lbn / g.Width; s < int64(g.N) {
		return int(s)
	}
	return g.N - 1
}

// Walk is the synthesis state of the three Markov subsystem models: the
// current storage region, utilization level and memory bank, and the block
// after the last synthetic I/O. KOOZA keeps one per class, in-breadth one
// for its whole stream. A Walk never writes its models, so walks over one
// model may run side by side, each with its own *rand.Rand.
type Walk struct {
	Subsystems
	storageState int
	cpuState     int
	memBank      int
	lastEnd      int64
	hasLast      bool
}

// NewWalk starts a walk over the three models, drawing each chain's start
// state from r: storage (a flat chain only), CPU, then memory.
func NewWalk(m Subsystems, r *rand.Rand) Walk {
	w := Walk{Subsystems: m}
	if m.Storage.Chain != nil {
		w.storageState = m.Storage.Chain.Start(r)
	}
	w.cpuState = m.CPU.Chain.Start(r)
	w.memBank = m.Memory.Chain.Start(r)
	return w
}

// Util advances the utilization-level chain and draws a utilization from
// the level's empirical distribution.
func (w *Walk) Util(r *rand.Rand) float64 {
	c := w.CPU
	w.cpuState = c.Chain.Step(w.cpuState, r)
	state := w.cpuState
	if c.Levels[state] == nil {
		// Never-observed level (reachable only through smoothing): fall
		// back to the level midpoint.
		mid := c.Lo + (c.Hi-c.Lo)*(float64(state)+0.5)/float64(c.Chain.N)
		return clampUtil(mid)
	}
	return clampUtil(c.Levels[state].Rand(r))
}

// Access advances the bank chain and draws one memory access.
func (w *Walk) Access(r *rand.Rand) (bank int, bytes int64, op trace.Op) {
	m := w.Memory
	w.memBank = m.Chain.Step(w.memBank, r)
	return w.memBank, int64(m.Sizes.Rand(r)), opFromProb(m.ReadProb, r)
}

// IO draws one storage I/O: its size, then either the sequential
// continuation of the previous I/O or a step of the region chain and an
// LBN within the region, then read or write.
func (w *Walk) IO(r *rand.Rand) (lbn, bytes int64, op trace.Op) {
	s := w.Storage
	bytes = max(int64(s.Sizes.Rand(r)), 1)
	// Sequential continuation reproduces spatial locality.
	if w.hasLast && r.Float64() < s.SeqProb {
		lbn = w.lastEnd
	} else {
		if s.Chain != nil {
			w.storageState = s.Chain.Step(w.storageState, r)
		} else {
			// Hierarchical one-step walk: simulate a length-2 fragment so
			// the walk continues from the current state's group.
			seq := s.Hier.Simulate(2, r)
			w.storageState = seq[len(seq)-1]
		}
		lbn = w.sampleLBN(w.storageState, r)
		w.hasLast = true
	}
	w.lastEnd = lbn + (bytes+4095)/4096
	return lbn, bytes, opFromProb(s.ReadProb, r)
}

func (w *Walk) sampleLBN(state int, r *rand.Rand) int64 {
	s := w.Storage
	if state >= 0 && state < len(s.StateLBNs) && s.StateLBNs[state] != nil {
		return max(int64(s.StateLBNs[state].Rand(r)), 0)
	}
	// Unobserved region: uniform within the region.
	lo := int64(state) * s.BlocksPerRegion
	return lo + int64(r.Float64()*float64(s.BlocksPerRegion))
}

func opFromProb(readProb float64, r *rand.Rand) trace.Op {
	if r.Float64() < readProb {
		return trace.OpRead
	}
	return trace.OpWrite
}

func clampUtil(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Check refuses storage, CPU and memory models that a Walk cannot draw
// from: a missing model, chain or size distribution, a chain whose state
// count is not the number of regions, levels or banks that index it, or a
// probability outside [0, 1]. Loaded models pass it before they are used;
// trained ones hold it by construction.
func (m Subsystems) Check() error {
	s, c, mem := m.Storage, m.CPU, m.Memory
	if s == nil || c == nil || mem == nil || c.Chain == nil || mem.Chain == nil || s.Sizes == nil || mem.Sizes == nil {
		return fmt.Errorf("missing subsystem models, chains or size distributions")
	}
	var states int
	switch {
	case s.Chain != nil:
		states = s.Chain.N
	case s.Hier != nil:
		states = len(s.Hier.Groups)
	default:
		return fmt.Errorf("storage model has no chain")
	}
	if states != s.Regions || len(s.StateLBNs) != s.Regions || s.BlocksPerRegion < 1 ||
		len(c.Levels) != c.Chain.N || mem.Chain.N != mem.Banks {
		return fmt.Errorf("a chain's states do not fit its regions, levels or banks")
	}
	for _, p := range []float64{s.SeqProb, s.ReadProb, mem.ReadProb} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("probability %g outside [0, 1]", p)
		}
	}
	return nil
}
