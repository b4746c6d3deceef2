package twin

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dcmodel/internal/hw"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// The compilers lower each trained model to the Twin IR. Every demand is
// an exact expectation of the corresponding replay cost function under the
// model's feature distributions — no sampling:
//
//   network   E[T] = Latency + E[bytes]/Bandwidth            (hw.Network.TransferTime)
//   cpu       E[T] = (BaseCycles + CyclesPerByte*E[bytes])/Frequency (hw.CPU.Time)
//   memory    E[T] = MissLatency + E[bytes]/Bandwidth        (hw.Memory.Access, row-miss
//             assumed: consecutive requests target different rows)
//   storage   E[T] = (1-SeqProb)*(E[seek]+Rotational) + E[bytes]/TransferRate
//             with E[seek] from the storage chain's stationary region walk
//             (hw.Disk.Access; sequential continuations skip seek+rotation)
//
// Variances propagate the same way (linear cost functions ⇒ scaled
// distribution variances; the seek/no-seek branch adds a Bernoulli term),
// and path/class mixtures combine by the law of total variance.

// moments accumulates mean and variance of per-request demand per station.
type moments struct {
	mean [4]float64
	vari [4]float64
}

// add accumulates a phase's (mean, var) onto its subsystem.
func (m *moments) add(sub trace.Subsystem, mean, vari float64) {
	m.mean[sub] += mean
	m.vari[sub] += vari
}

// mixture combines weighted per-path moments into per-station (D, SCV)
// using the law of total variance across paths.
type mixture struct {
	w     float64    // total weight accumulated
	mean  [4]float64 // sum w_p * m_p
	meanE [4]float64 // sum w_p * (v_p + m_p^2)
}

func (mx *mixture) add(w float64, m moments) {
	if w <= 0 {
		return
	}
	mx.w += w
	for k := 0; k < 4; k++ {
		mx.mean[k] += w * m.mean[k]
		mx.meanE[k] += w * (m.vari[k] + m.mean[k]*m.mean[k])
	}
}

// stations normalizes the mixture into the canonical station slice.
func (mx *mixture) stations() ([]Station, error) {
	if mx.w <= 0 {
		return nil, badConfig("model has no weighted request paths")
	}
	out := make([]Station, 0, 4)
	for _, sub := range trace.Subsystems() {
		d := mx.mean[sub] / mx.w
		v := mx.meanE[sub]/mx.w - d*d
		scv := 0.0
		if d > 0 && v > 0 {
			scv = v / (d * d)
		}
		if !validMoment(d) || !validMoment(scv) {
			return nil, badConfig("station %s compiled to non-finite demand (d=%g scv=%g)", sub, d, scv)
		}
		out = append(out, Station{Subsystem: sub, Name: sub.String(), Demand: d, SCV: scv})
	}
	return out, nil
}

func validMoment(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// distMoments returns (mean, var) of an empirical byte distribution,
// tolerating nil (zero bytes).
func distMoments(e *stats.Empirical) (float64, float64) {
	if e == nil {
		return 0, 0
	}
	return e.Mean(), e.Var()
}

// arrivalMoments derives (lambda, SCV) from an interarrival distribution.
func arrivalMoments(d stats.Dist) (float64, float64, error) {
	if d == nil {
		return 0, 0, badConfig("model has no arrival process")
	}
	mean, vari := d.Mean(), d.Var()
	if !(mean > 0) || math.IsNaN(vari) || math.IsInf(vari, 0) || vari < 0 {
		return 0, 0, badConfig("arrival process has invalid moments mean=%g var=%g", mean, vari)
	}
	return 1 / mean, vari / (mean * mean), nil
}

// CompileKooza lowers a trained KOOZA model onto a platform server. The
// servers count mirrors replay.Platform.Servers: 0 infers the trained
// server layout's size.
func CompileKooza(m *kooza.Model, srv *hw.Server, servers int) (*Twin, error) {
	if m == nil || len(m.Classes) == 0 {
		return nil, badConfig("nil or untrained kooza model")
	}
	if err := validServer(srv); err != nil {
		return nil, err
	}
	var classW float64
	for _, c := range m.Classes {
		classW += c.Weight
	}
	if classW <= 0 {
		return nil, badConfig("kooza class weights sum to zero")
	}
	var mx mixture
	serverWeight := map[int]float64{}
	for _, c := range m.Classes {
		cw := c.Weight / classW
		seek, err := seekMean(c.Storage, srv.Disk)
		if err != nil {
			return nil, fmt.Errorf("twin: class %s: %w", c.Name, err)
		}
		paths := c.Queues
		if len(paths) == 0 {
			paths = []kooza.PhaseQueue{{Phases: c.Phases, Weight: 1}}
		}
		var pathW float64
		for _, q := range paths {
			pathW += q.Weight
		}
		if pathW <= 0 {
			pathW = 1
		}
		for _, q := range paths {
			mx.add(cw*q.Weight/pathW, koozaPathMoments(c, q, srv, seek))
		}
		// Per-server traffic split (multi-server instancing). Keys are
		// sorted before any float accumulates: map iteration order must
		// never reach the sums, or the compiled twin differs in the last
		// ULP from run to run.
		servers := make([]int, 0, len(c.ServerWeights))
		for s := range c.ServerWeights {
			servers = append(servers, s)
		}
		sort.Ints(servers)
		var sw float64
		for _, s := range servers {
			sw += c.ServerWeights[s]
		}
		if sw > 0 {
			for _, s := range servers {
				serverWeight[s] += cw * c.ServerWeights[s] / sw
			}
		} else {
			serverWeight[0] += cw
		}
	}
	st, err := mx.stations()
	if err != nil {
		return nil, err
	}
	lambda, scv, err := koozaArrival(m.Network)
	if err != nil {
		return nil, err
	}
	return &Twin{
		Approach:   "KOOZA",
		Lambda:     lambda,
		ArrivalSCV: scv,
		Stations:   st,
		Servers:    maxInt(servers, len(serverWeight)),
		Shares:     sharesOf(serverWeight),
	}, nil
}

// koozaPathMoments computes one control-flow path's per-station demand
// moments, mirroring the synthesis feature-assignment conventions (first
// network span draws NetIn, later ones NetOut; the i-th CPU span draws the
// path's i-th CPUBytes distribution).
func koozaPathMoments(c *kooza.ClassModel, q kooza.PhaseQueue, srv *hw.Server, seek float64) moments {
	var mo moments
	sawNet, sawCPU := 0, 0
	for _, phase := range q.Phases {
		switch phase {
		case trace.Network:
			dist := c.NetIn
			if sawNet > 0 {
				dist = c.NetOut
			}
			sawNet++
			b, v := distMoments(dist)
			mo.add(phase, srv.Net.Latency+b/srv.Net.Bandwidth, v/(srv.Net.Bandwidth*srv.Net.Bandwidth))
		case trace.CPU:
			var dist *stats.Empirical
			if sawCPU < len(q.CPUBytes) {
				dist = q.CPUBytes[sawCPU]
			}
			sawCPU++
			b, v := distMoments(dist)
			cpb := srv.CPU.CyclesPerByte / srv.CPU.Frequency
			mo.add(phase, (srv.CPU.BaseCycles+srv.CPU.CyclesPerByte*b)/srv.CPU.Frequency, cpb*cpb*v)
		case trace.Memory:
			b, v := distMoments(c.Memory.Sizes)
			mo.add(phase, srv.Mem.MissLatency+b/srv.Mem.Bandwidth, v/(srv.Mem.Bandwidth*srv.Mem.Bandwidth))
		case trace.Storage:
			m, v := storagePhaseMean(c.Storage, srv.Disk, seek)
			mo.add(phase, m, v)
		}
	}
	return mo
}

// storagePhaseMean returns (mean, var) of one storage phase: the
// seek-or-sequential branch times the positional cost, plus the transfer.
func storagePhaseMean(s *kooza.StorageModel, d *hw.Disk, seek float64) (float64, float64) {
	b, v := distMoments(s.Sizes)
	pSeek := 1 - s.SeqProb
	if pSeek < 0 {
		pSeek = 0
	}
	if pSeek > 1 {
		pSeek = 1
	}
	positional := seek + d.RotationalLatency
	mean := pSeek*positional + b/d.TransferRate
	vari := pSeek*(1-pSeek)*positional*positional + v/(d.TransferRate*d.TransferRate)
	return mean, vari
}

// seekMean is the expected seek time of a non-sequential I/O: the
// stationary region walk of the storage chain pushed through the disk's
// square-root seek curve, E[seek] = MinSeek + (MaxSeek-MinSeek) *
// sum_i pi_i sum_j P_ij sqrt(d_ij / NumBlocks), with region-center
// distances and a width/3 intra-region mean distance.
func seekMean(s *kooza.StorageModel, d *hw.Disk) (float64, error) {
	if s == nil {
		return 0, badConfig("class has no storage model")
	}
	pi, step, err := regionWalk(s)
	if err != nil {
		return 0, err
	}
	regions := len(pi)
	width := float64(s.BlocksPerRegion)
	centers := make([]float64, regions)
	for i := range centers {
		centers[i] = (float64(i) + 0.5) * width
	}
	blocks := float64(d.NumBlocks)
	var esqrt float64
	for i := 0; i < regions; i++ {
		if pi[i] == 0 {
			continue
		}
		for j := 0; j < regions; j++ {
			p := step(i, j)
			if p == 0 {
				continue
			}
			dist := math.Abs(centers[i] - centers[j])
			if i == j {
				dist = width / 3
			}
			esqrt += pi[i] * p * math.Sqrt(dist/blocks)
		}
	}
	return d.MinSeek + (d.MaxSeek-d.MinSeek)*esqrt, nil
}

// regionWalk returns the stationary region distribution and a one-step
// transition lookup for either storage-chain representation.
func regionWalk(s *kooza.StorageModel) ([]float64, func(i, j int) float64, error) {
	switch {
	case s.Chain != nil:
		pi, err := s.Chain.Stationary()
		if err != nil {
			return nil, nil, badConfig("storage chain: %v", err)
		}
		return pi, func(i, j int) float64 { return s.Chain.Trans.Row(i)[j] }, nil
	case s.Hier != nil:
		return hierWalk(s.Hier)
	default:
		return nil, nil, badConfig("storage model has neither chain nor hierarchy")
	}
}

// hierWalk flattens the two-level storage model: pi_state =
// pi_top(group) * pi_sub(local), and a step from i lands in group g with
// the top chain then picks a state within g by the group's stationary
// sub-distribution — the closed-form analogue of Hierarchical.Simulate.
func hierWalk(h *markov.Hierarchical) ([]float64, func(i, j int) float64, error) {
	piTop, err := h.Top.Stationary()
	if err != nil {
		return nil, nil, badConfig("storage hierarchy top chain: %v", err)
	}
	n := len(h.Groups)
	pi := make([]float64, n)
	within := make([]float64, n) // stationary weight of each state within its group
	for g, members := range h.Members {
		piSub, err := h.Sub[g].Stationary()
		if err != nil {
			return nil, nil, badConfig("storage hierarchy group %d: %v", g, err)
		}
		for local, state := range members {
			within[state] = piSub[local]
			pi[state] = piTop[g] * piSub[local]
		}
	}
	step := func(i, j int) float64 {
		return h.Top.Trans.Row(h.Groups[i])[h.Groups[j]] * within[j]
	}
	return pi, step, nil
}

// koozaArrival derives (lambda, SCV) from the network model; the
// semi-Markov gap refinement mixes the per-regime empirical moments by the
// gap chain's stationary distribution.
func koozaArrival(n *kooza.NetworkModel) (float64, float64, error) {
	if n == nil {
		return 0, 0, badConfig("kooza model has no network model")
	}
	if n.GapChain == nil {
		return arrivalMoments(n.Interarrival)
	}
	pi, err := n.GapChain.Stationary()
	if err != nil {
		return 0, 0, badConfig("gap chain: %v", err)
	}
	var mean, e2 float64
	for i, p := range pi {
		if i >= len(n.GapStates) || n.GapStates[i] == nil {
			continue
		}
		m, v := n.GapStates[i].Mean(), n.GapStates[i].Var()
		mean += p * m
		e2 += p * (v + m*m)
	}
	if !(mean > 0) {
		return 0, 0, badConfig("gap model has non-positive mean interarrival %g", mean)
	}
	return 1 / mean, (e2 - mean*mean) / (mean * mean), nil
}

// CompileInBreadth lowers a trained in-breadth model: one class-blind path
// with the marginal per-request span counts as visit ratios.
func CompileInBreadth(m *inbreadth.Model, srv *hw.Server, servers int) (*Twin, error) {
	if m == nil || m.Storage == nil || m.CPU == nil || m.Memory == nil {
		return nil, badConfig("nil or untrained in-breadth model")
	}
	if err := validServer(srv); err != nil {
		return nil, err
	}
	seek, err := seekMean(m.Storage, srv.Disk)
	if err != nil {
		return nil, err
	}
	var mo moments
	for sub, visits := range m.SpansPerRequest {
		if visits <= 0 {
			continue
		}
		var mean, vari float64
		switch sub {
		case trace.Network:
			b, v := distMoments(m.NetBytes)
			mean = srv.Net.Latency + b/srv.Net.Bandwidth
			vari = v / (srv.Net.Bandwidth * srv.Net.Bandwidth)
		case trace.CPU:
			b, v := distMoments(m.CPUBytes)
			cpb := srv.CPU.CyclesPerByte / srv.CPU.Frequency
			mean = (srv.CPU.BaseCycles + srv.CPU.CyclesPerByte*b) / srv.CPU.Frequency
			vari = cpb * cpb * v
		case trace.Memory:
			b, v := distMoments(m.Memory.Sizes)
			mean = srv.Mem.MissLatency + b/srv.Mem.Bandwidth
			vari = v / (srv.Mem.Bandwidth * srv.Mem.Bandwidth)
		case trace.Storage:
			mean, vari = storagePhaseMean(m.Storage, srv.Disk, seek)
		default:
			continue
		}
		mo.add(sub, visits*mean, visits*vari)
	}
	var mx mixture
	mx.add(1, mo)
	st, err := mx.stations()
	if err != nil {
		return nil, err
	}
	lambda, scv, err := arrivalMoments(m.Interarrival)
	if err != nil {
		return nil, err
	}
	// In-breadth synthesis has no server-instancing model: every request
	// lands on server 0.
	return &Twin{
		Approach:   "in-breadth",
		Lambda:     lambda,
		ArrivalSCV: scv,
		Stations:   st,
		Servers:    maxInt(servers, 1),
		Shares:     []float64{1},
	}, nil
}

// CompileInDepth lowers a trained in-depth model. The model is self-timed
// — its per-phase empirical service times already encode the platform it
// was trained on — so no hardware cost functions are involved.
func CompileInDepth(m *indepth.Model) (*Twin, error) {
	if m == nil || len(m.Classes) == 0 {
		return nil, badConfig("nil or untrained in-depth model")
	}
	var classW float64
	for _, c := range m.Classes {
		classW += c.Weight
	}
	if classW <= 0 {
		return nil, badConfig("in-depth class weights sum to zero")
	}
	var mx mixture
	for _, c := range m.Classes {
		var mo moments
		for i, sub := range c.Phases {
			if i >= len(c.Service) || c.Service[i] == nil {
				continue
			}
			mo.add(sub, c.Service[i].Mean(), c.Service[i].Var())
		}
		mx.add(c.Weight/classW, mo)
	}
	st, err := mx.stations()
	if err != nil {
		return nil, err
	}
	lambda, scv, err := arrivalMoments(m.Interarrival)
	if err != nil {
		return nil, err
	}
	// In-depth synthesis runs one shared set of FIFO stations.
	return &Twin{
		Approach:   "in-depth",
		Lambda:     lambda,
		ArrivalSCV: scv,
		Stations:   st,
		Servers:    1,
		Shares:     []float64{1},
	}, nil
}

func validServer(srv *hw.Server) error {
	if srv == nil {
		return badConfig("nil platform server")
	}
	if err := srv.Validate(); err != nil {
		return badConfig("platform: %v", err)
	}
	return nil
}

// sharesOf normalizes a server->weight map into a hottest-first share
// vector (map order never reaches the floats: keys are sorted).
func sharesOf(weights map[int]float64) []float64 {
	if len(weights) == 0 {
		return []float64{1}
	}
	ids := make([]int, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		sum += weights[id]
	}
	if sum <= 0 {
		return []float64{1}
	}
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		out = append(out, weights[id]/sum)
	}
	stats.SortFloats(out)
	slices.Reverse(out)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
