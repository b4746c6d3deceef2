package kooza

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dcmodel/internal/markov"
	"dcmodel/internal/par"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Train fits a KOOZA model to a trace: one ClassModel per request class
// (four subsystem models plus the time-dependency queue), and the shared
// network arrival model. Each subsystem model is trained purely from the
// spans of the corresponding subsystem, as the paper prescribes ("each one
// of the four models is trained using traces from the corresponding
// subsystem"); the time-dependency queue is extracted from the complete
// round trip of the requests.
func Train(tr *trace.Trace, opts Options) (*Model, error) {
	p, err := trace.Prepare(tr)
	if err != nil {
		return nil, fmt.Errorf("kooza: %w", err)
	}
	return TrainPrepared(p, opts)
}

// TrainPrepared is Train on an input prepared once and shared with the
// other trainers.
func TrainPrepared(p *trace.Prepared, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	// Network model: the interarrival distribution selected by KS distance.
	meanGap := stats.Mean(p.Gaps)
	rate := 0.0
	if meanGap > 0 {
		rate = 1 / meanGap
	}
	model := &Model{
		Network:   &NetworkModel{Interarrival: p.Arrival.Dist, FitKS: p.Arrival.KS, Rate: rate},
		Opts:      opts,
		TrainedOn: len(p.Requests),
	}
	if opts.ArrivalStates > 1 {
		if err := trainGapChain(model.Network, p.Gaps, opts); err != nil {
			return nil, fmt.Errorf("kooza: arrival gap chain: %w", err)
		}
	}

	// The classes train side by side, each into its own slot; a failure
	// reports the lowest-index failing class, as a loop over them would.
	model.Classes = make([]*ClassModel, len(p.Classes))
	err := par.Do(len(p.Classes), 0, func(i int) error {
		pc := &p.Classes[i]
		cm, err := trainClass(pc, float64(len(pc.Requests))/float64(len(p.Requests)), opts)
		if err != nil {
			return fmt.Errorf("kooza: class %q: %w", pc.Name, err)
		}
		model.Classes[i] = cm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return model, nil
}

// trainGapChain fits the semi-Markov arrival refinement: gap regimes are
// found by k-means clustering of log-gaps (burst and idle gaps separate
// into modes, as in an MMPP), then a Markov chain over regimes is trained
// with per-regime empirical gaps.
func trainGapChain(nm *NetworkModel, gaps []float64, opts Options) error {
	k := opts.ArrivalStates
	if len(gaps) < 4*k {
		return fmt.Errorf("need >= %d gaps for %d arrival states, got %d", 4*k, k, len(gaps))
	}
	logs := stats.NewMatrix(len(gaps), 1)
	const floor = 1e-9
	for i, g := range gaps {
		if g < floor {
			g = floor
		}
		logs.Set(i, 0, math.Log(g))
	}
	// Deterministic seeding keeps Train reproducible.
	km, err := stats.KMeans(logs, k, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		return err
	}
	seq := km.Assign
	perState := make([][]float64, k)
	for i, s := range seq {
		perState[s] = append(perState[s], gaps[i])
	}
	chain, err := markov.Train([][]int{seq}, k, opts.Smoothing)
	if err != nil {
		return err
	}
	states := make([]*stats.Empirical, k)
	for s, vals := range perState {
		if len(vals) == 0 {
			// Equal-frequency binning can starve a state on tied data;
			// fall back to the pooled gaps.
			vals = gaps
		}
		emp, err := stats.NewEmpirical(vals)
		if err != nil {
			return err
		}
		states[s] = emp
	}
	nm.GapChain = chain
	nm.GapStates = states
	return nil
}

func trainClass(pc *trace.PreparedClass, weight float64, opts Options) (*ClassModel, error) {
	cm := &ClassModel{Name: pc.Name, Weight: weight}
	reqs := pc.Requests

	// Time-dependency queues: every retained control-flow path of the
	// class, modal first.
	paths := pc.Paths.Ranked()
	queues, err := phaseQueues(paths)
	if err != nil {
		return nil, err
	}
	cm.Queues = queues
	cm.Phases = queues[0].Phases

	// Server instancing weights.
	cm.ServerWeights = make(map[int]float64)
	for i := range reqs {
		cm.ServerWeights[reqs[i].Server] += 1 / float64(len(reqs))
	}

	// One pass over the spans feeds the three Markov models, the network
	// transfer sizes (first and last network span of each request) and the
	// CPU processing amounts per queue, per CPU phase position. The sample
	// slices are sized exactly from the path counts: the model keeps them.
	samples := NewSubsystemSamples(pc.Paths.SpanCount(trace.Storage), pc.Paths.SpanCount(trace.CPU), pc.Paths.SpanCount(trace.Memory))
	inBytes := make([]float64, 0, len(reqs))
	outBytes := make([]float64, 0, len(reqs))
	cpuBytes := make([][][]float64, len(queues))
	for qi, q := range queues {
		for _, p := range q.Phases {
			if p == trace.CPU {
				cpuBytes[qi] = append(cpuBytes[qi], make([]float64, 0, paths[qi].Count))
			}
		}
	}
	for i := range reqs {
		spans := reqs[i].Spans
		// The retained queues are a prefix of the ranked paths; a request on
		// a below-threshold path is not modeled.
		qi, ok := pc.Paths.Rank(spans)
		modeled := ok && qi < len(queues)
		var netIn, netOut int64
		var hasNet bool
		cpuPos := 0
		for j := range spans {
			sp := &spans[j]
			switch sp.Subsystem {
			case trace.Network:
				if !hasNet {
					netIn, hasNet = sp.Bytes, true
				}
				netOut = sp.Bytes
			case trace.CPU:
				if modeled {
					cpuBytes[qi][cpuPos] = append(cpuBytes[qi][cpuPos], float64(sp.Bytes))
					cpuPos++
				}
			}
			samples.Add(sp)
		}
		if hasNet {
			inBytes = append(inBytes, float64(netIn))
			outBytes = append(outBytes, float64(netOut))
		}
	}
	if cm.Storage, cm.CPU, cm.Memory, err = samples.Train(opts); err != nil {
		return nil, err
	}
	if cm.NetIn, err = stats.NewEmpiricalOwning(inBytes); err != nil {
		return nil, fmt.Errorf("network-in sizes: %w", err)
	}
	if cm.NetOut, err = stats.NewEmpiricalOwning(outBytes); err != nil {
		return nil, fmt.Errorf("network-out sizes: %w", err)
	}
	for qi := range queues {
		cm.Queues[qi].CPUBytes = make([]*stats.Empirical, len(cpuBytes[qi]))
		for i, vals := range cpuBytes[qi] {
			if cm.Queues[qi].CPUBytes[i], err = stats.NewEmpiricalOwning(vals); err != nil {
				return nil, fmt.Errorf("cpu processing sizes: %w", err)
			}
		}
	}
	return cm, nil
}

// phaseQueueMinShare is the smallest per-class share a control-flow path
// needs to be retained as its own time-dependency queue.
const phaseQueueMinShare = 0.005

// phaseQueues turns the class's ranked phase paths into the retained
// time-dependency queues with weights, most frequent first.
func phaseQueues(paths []trace.PhasePath) ([]PhaseQueue, error) {
	total := 0
	for _, p := range paths {
		total += p.Count
	}
	if total == 0 {
		return nil, fmt.Errorf("time-dependency queue: no spans in class")
	}
	var queues []PhaseQueue
	var kept float64
	for i, p := range paths {
		share := float64(p.Count) / float64(total)
		if i > 0 && share < phaseQueueMinShare {
			break
		}
		// The path belongs to the prepared input, which other trainers read.
		queues = append(queues, PhaseQueue{Phases: append([]trace.Subsystem(nil), p.Phases...), Weight: share})
		kept += share
	}
	// Renormalize over the retained paths.
	for i := range queues {
		queues[i].Weight /= kept
	}
	return queues, nil
}

// storageIO and memAccess are what the storage and memory models keep of a
// span.
type storageIO struct {
	start float64
	lbn   int64
	bytes int64
	op    trace.Op
}

type memAccess struct {
	start float64
	bank  int
	bytes int64
	op    trace.Op
}

// SubsystemSamples collects, span by span, what the three Markov subsystem
// models train on. KOOZA fills one per class and in-breadth one for the
// whole trace, each inside its own single pass over the spans.
type SubsystemSamples struct {
	ios     []storageIO
	utils   []float64
	accs    []memAccess
	maxBank int
}

// NewSubsystemSamples returns a collector with room for the given numbers
// of storage, CPU and memory spans.
func NewSubsystemSamples(storage, cpu, memory int) *SubsystemSamples {
	return &SubsystemSamples{
		ios:   make([]storageIO, 0, storage),
		utils: make([]float64, 0, cpu),
		accs:  make([]memAccess, 0, memory),
	}
}

// Add collects one span. Spans must arrive in the order the requests
// arrived (and in span order within a request): the storage and memory
// streams are put in time order by an unstable sort, whose outcome among
// equal start times depends on the order it is given.
func (c *SubsystemSamples) Add(s *trace.Span) {
	switch s.Subsystem {
	case trace.Storage:
		c.ios = append(c.ios, storageIO{start: s.Start, lbn: s.LBN, bytes: s.Bytes, op: s.Op})
	case trace.CPU:
		c.utils = append(c.utils, s.Util)
	case trace.Memory:
		c.accs = append(c.accs, memAccess{start: s.Start, bank: s.Bank, bytes: s.Bytes, op: s.Op})
		if s.Bank > c.maxBank {
			c.maxBank = s.Bank
		}
	}
}

// Train fits the storage, CPU and memory models to the collected spans.
func (c *SubsystemSamples) Train(opts Options) (*StorageModel, *CPUModel, *MemoryModel, error) {
	opts = opts.withDefaults()
	storage, err := trainStorage(c.ios, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cpu, err := trainCPU(c.utils, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	memory, err := trainMemory(c.accs, c.maxBank, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return storage, cpu, memory, nil
}

func trainStorage(ios []storageIO, opts Options) (*StorageModel, error) {
	if len(ios) == 0 {
		return nil, fmt.Errorf("storage model: no storage spans")
	}
	// Put the storage span stream in time order.
	slices.SortFunc(ios, func(a, b storageIO) int { return stats.CompareLess(a.start, b.start) })

	diskBlocks := opts.DiskBlocks
	if diskBlocks <= 0 {
		var maxLBN int64
		for _, x := range ios {
			if x.lbn > maxLBN {
				maxLBN = x.lbn
			}
		}
		diskBlocks = maxLBN + 1
	}
	blocksPerRegion := diskBlocks / int64(opts.StorageRegions)
	if blocksPerRegion < 1 {
		blocksPerRegion = 1
	}
	m := &StorageModel{
		Regions:         opts.StorageRegions,
		BlocksPerRegion: blocksPerRegion,
		StateLBNs:       make([]*stats.Empirical, opts.StorageRegions),
	}
	stateOf := func(lbn int64) int {
		s := int(lbn / blocksPerRegion)
		if s < 0 {
			return 0
		}
		if s >= opts.StorageRegions {
			return opts.StorageRegions - 1
		}
		return s
	}
	seq := make([]int, len(ios))
	for i := range ios {
		seq[i] = stateOf(ios[i].lbn)
	}
	perState := carveByState(seq, opts.StorageRegions)
	sizes := make([]float64, len(ios))
	var reads, seqRuns int
	var prevEnd int64 = -1
	for i, x := range ios {
		perState[seq[i]] = append(perState[seq[i]], float64(x.lbn))
		sizes[i] = float64(x.bytes)
		if x.op == trace.OpRead {
			reads++
		}
		if prevEnd >= 0 && x.lbn == prevEnd {
			seqRuns++
		}
		prevEnd = x.lbn + (x.bytes+4095)/4096
	}
	if len(ios) > 1 {
		m.SeqProb = float64(seqRuns) / float64(len(ios)-1)
	}
	m.ReadProb = float64(reads) / float64(len(ios))
	var err error
	if opts.Hierarchical {
		groups := make([]int, opts.StorageRegions)
		per := (opts.StorageRegions + opts.HierGroups - 1) / opts.HierGroups
		for i := range groups {
			g := i / per
			if g >= opts.HierGroups {
				g = opts.HierGroups - 1
			}
			groups[i] = g
		}
		// Dense groups are guaranteed only when regions >= groups.
		if opts.StorageRegions < opts.HierGroups {
			for i := range groups {
				groups[i] = i
			}
		}
		m.Hier, err = markov.TrainHierarchical([][]int{seq}, opts.StorageRegions, groups, opts.Smoothing)
	} else {
		m.Chain, err = markov.Train([][]int{seq}, opts.StorageRegions, opts.Smoothing)
	}
	if err != nil {
		return nil, fmt.Errorf("storage chain: %w", err)
	}
	for st, vals := range perState {
		if len(vals) > 0 {
			emp, err := stats.NewEmpiricalOwning(vals)
			if err != nil {
				return nil, err
			}
			m.StateLBNs[st] = emp
		}
	}
	m.Sizes, err = stats.NewEmpiricalOwning(sizes)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// carveByState returns one empty slice per state, each with exactly the
// capacity seq assigns that state, all carved from a single array.
func carveByState(seq []int, states int) [][]float64 {
	counts := make([]int, states)
	for _, s := range seq {
		counts[s]++
	}
	backing := make([]float64, len(seq))
	perState := make([][]float64, states)
	for s, n := range counts {
		perState[s] = backing[:0:n]
		backing = backing[n:]
	}
	return perState
}

func trainCPU(utils []float64, opts Options) (*CPUModel, error) {
	if len(utils) == 0 {
		return nil, fmt.Errorf("cpu model: no cpu spans")
	}
	lo, hi := stats.Min(utils), stats.Max(utils)
	if hi <= lo {
		hi = lo + 1e-9
	}
	m := &CPUModel{Lo: lo, Hi: hi, Levels: make([]*stats.Empirical, opts.CPUStates)}
	// Quantize and train the level chain.
	n := opts.CPUStates
	stateOf := func(u float64) int {
		s := int(float64(n) * (u - lo) / (hi - lo))
		if s < 0 {
			return 0
		}
		if s >= n {
			return n - 1
		}
		return s
	}
	seq := make([]int, len(utils))
	for i, u := range utils {
		seq[i] = stateOf(u)
	}
	perState := carveByState(seq, n)
	for i, u := range utils {
		perState[seq[i]] = append(perState[seq[i]], u)
	}
	chain, err := markov.Train([][]int{seq}, n, opts.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("cpu chain: %w", err)
	}
	m.Chain = chain
	for s, vals := range perState {
		if len(vals) > 0 {
			emp, err := stats.NewEmpiricalOwning(vals)
			if err != nil {
				return nil, err
			}
			m.Levels[s] = emp
		}
	}
	return m, nil
}

func trainMemory(accs []memAccess, maxBank int, opts Options) (*MemoryModel, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("memory model: no memory spans")
	}
	slices.SortFunc(accs, func(a, b memAccess) int { return stats.CompareLess(a.start, b.start) })
	banks := maxBank + 1
	m := &MemoryModel{Banks: banks}
	seq := make([]int, len(accs))
	sizes := make([]float64, len(accs))
	var reads int
	for i, a := range accs {
		b := a.bank
		if b < 0 {
			b = 0
		}
		seq[i] = b
		sizes[i] = float64(a.bytes)
		if a.op == trace.OpRead {
			reads++
		}
	}
	m.ReadProb = float64(reads) / float64(len(accs))
	chain, err := markov.Train([][]int{seq}, banks, opts.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("memory chain: %w", err)
	}
	m.Chain = chain
	m.Sizes, err = stats.NewEmpiricalOwning(sizes)
	if err != nil {
		return nil, err
	}
	return m, nil
}
