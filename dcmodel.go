// Package dcmodel is a datacenter workload modeling toolkit: a from-scratch
// Go implementation of the modeling ecosystem cross-examined in
// "Cross-Examination of Datacenter Workload Modeling Techniques"
// (Delimitrou & Kozyrakis, ICDCS 2011 workshops).
//
// The toolkit provides:
//
//   - A GFS-like application simulator (Simulate) that generates
//     ground-truth workload traces with the paper's Figure 1 request
//     structure: network -> CPU -> memory -> storage -> CPU -> network.
//   - Three trainable workload models: the in-breadth approach (four
//     independent per-subsystem models), the in-depth approach (a
//     request-flow queueing model), and KOOZA, the paper's combined
//     approach (per-subsystem Markov models + a network queueing model +
//     a time-dependency queue).
//   - A replay engine that executes original or synthetic workloads on a
//     simulated server platform and measures latency.
//   - A cross-examination harness regenerating the paper's Table 1, and a
//     validation pipeline regenerating Table 2.
//
// Quick start:
//
//	tr, _ := dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
//		RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: 4000, Seed: 1},
//		Rate:      20,
//	})
//	model, _ := dcmodel.Train(tr, dcmodel.Kooza)
//	synth, _ := model.Synthesize(4000, rand.New(rand.NewSource(2)))
//	timed, _ := dcmodel.Replay(synth, dcmodel.DefaultPlatform())
//
// To study the workload under failures, arm a fault scenario on the run:
//
//	run.Faults = &dcmodel.FaultConfig{MTBF: 3600, MTTR: 120, Seed: 7}
//
// and the simulator injects chunkserver/rack outages, with per-request
// retry and failover annotations in the resulting trace.
package dcmodel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dcmodel/internal/crossexam"
	"dcmodel/internal/fault"
	"dcmodel/internal/gfs"
	"dcmodel/internal/hw"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/par"
	"dcmodel/internal/prand"
	"dcmodel/internal/replay"
	"dcmodel/internal/serve"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

// Trace schema re-exports.
type (
	// Trace is an ordered collection of traced requests.
	Trace = trace.Trace
	// Request is one traced user request.
	Request = trace.Request
	// Span is one per-subsystem phase of a request.
	Span = trace.Span
	// Subsystem identifies a system part (network, cpu, memory, storage).
	Subsystem = trace.Subsystem
	// Op is a read/write operation type.
	Op = trace.Op
)

// Subsystem and operation constants.
const (
	Network = trace.Network
	CPU     = trace.CPU
	Memory  = trace.Memory
	Storage = trace.Storage

	OpNone  = trace.OpNone
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// Model re-exports.
type (
	// KoozaModel is the paper's combined model.
	KoozaModel = kooza.Model
	// KoozaOptions configures KOOZA training.
	KoozaOptions = kooza.Options
	// InBreadthOptions configures in-breadth training.
	InBreadthOptions = inbreadth.Options
)

// Workload re-exports.
type (
	// Mix is a weighted set of request classes.
	Mix = workload.Mix
	// ClassSpec describes one request class.
	ClassSpec = workload.ClassSpec
	// Arrivals generates request arrival instants.
	Arrivals = workload.Arrivals
)

// Hardware and platform re-exports.
type (
	// Server bundles one machine's subsystem hardware models.
	Server = hw.Server
	// Platform describes the replay hardware.
	Platform = replay.Platform
)

// GFSConfig describes the simulated GFS cluster.
type GFSConfig = gfs.Config

// Cross-examination re-exports.
type (
	// Scores is the measured Table 1 scorecard of one approach.
	Scores = crossexam.Scores
)

// Fault-injection re-exports.
type (
	// FaultConfig describes a deterministic failure/repair scenario:
	// per-chunkserver MTBF/MTTR, optional correlated rack failures, and
	// the client-side timeout/backoff recovery parameters. Arm it via
	// RunConfig.Faults or Platform.Faults.
	FaultConfig = fault.Config
	// FaultSchedule is a realized, seed-stable failure history (advanced
	// use: inspecting or pre-computing outage intervals).
	FaultSchedule = fault.Schedule
)

// NewFaultSchedule realizes cfg into the deterministic failure history for
// servers chunkservers on SplitMix64 sub-stream stream. The simulator and
// replay engine construct their own schedules internally; this constructor
// is for tools that want to inspect the same timelines.
func NewFaultSchedule(cfg FaultConfig, servers int, stream uint64) (*FaultSchedule, error) {
	return fault.NewSchedule(cfg, servers, stream)
}

// Table2Mix returns the paper's two validation request classes (64 KB
// read, 4 MB write).
func Table2Mix() *Mix { return workload.Table2Mix() }

// WebMix returns a heavy-tailed read/write object mix.
func WebMix() *Mix { return workload.WebMix() }

// DefaultGFSConfig returns the single-chunkserver cluster configuration of
// the paper's preliminary experiments.
func DefaultGFSConfig() GFSConfig { return gfs.DefaultConfig() }

// DefaultPlatform returns the replay platform matching the default GFS
// chunkserver hardware.
func DefaultPlatform() Platform {
	return Platform{NewServer: gfs.DefaultServerHW}
}

// RunConfig holds the knobs every simulation run shares — open or closed
// loop. GFSRun and GFSClosedRun embed it, so the common fields read and
// write identically on both.
type RunConfig struct {
	// Mix is the request-class mix (required).
	Mix *Mix
	// Requests is the number of requests to simulate (required). In
	// sharded mode this is the total across all shards.
	Requests int
	// Seed makes the run reproducible: it drives the workload rand
	// stream. An armed fault scenario has its own Seed, kept separate so
	// the same workload can be rerun under different failure histories.
	Seed int64
	// Shards, when > 1, partitions the client population into that many
	// independent cluster partitions, each with its own SplitMix64-derived
	// rand stream (see gfs.SimulateSharded). The merged trace depends only
	// on (cfg, run, Shards, Seed) — never on Workers.
	Shards int
	// Workers bounds how many shards simulate concurrently: 0 selects
	// runtime.GOMAXPROCS(0), 1 is the serial fallback. Only consulted
	// when Shards > 1.
	Workers int
	// Faults, when non-nil, arms a deterministic failure/repair scenario:
	// chunkservers (and optionally whole racks) go down and come back per
	// the scenario's MTBF/MTTR, and clients recover by timeout, backoff
	// and replica failover. The trace's Retries/FailedOver annotations
	// record the recovery work. Nil reproduces the fault-free simulation
	// byte for byte.
	Faults *FaultConfig
}

// GFSRun drives an open-loop GFS simulation: requests arrive per Rate (or
// the explicit Arrivals process) regardless of completions.
type GFSRun struct {
	RunConfig
	// Rate is the Poisson arrival rate in requests/second; ignored when
	// Arrivals is set.
	Rate float64
	// Arrivals optionally overrides the arrival process.
	Arrivals Arrivals
}

// Simulate builds a cluster from cfg, runs the open-loop workload and
// returns the resulting trace. run.Seed makes the run reproducible: with
// Shards <= 1 the run is the classic single-threaded simulation; with
// Shards > 1 the sharded engine partitions clients across cluster
// partitions and the output is byte-identical for any Workers value —
// with or without run.Faults armed.
func Simulate(cfg GFSConfig, run GFSRun) (*Trace, error) {
	arrivals := run.Arrivals
	if arrivals == nil {
		if run.Rate <= 0 {
			return nil, fmt.Errorf("dcmodel: run needs a positive Rate or an Arrivals process: %w", ErrBadConfig)
		}
		arrivals = workload.Poisson{Rate: run.Rate}
	}
	rc := gfs.RunConfig{
		Mix:      run.Mix,
		Arrivals: arrivals,
		Requests: run.Requests,
		Faults:   run.Faults,
	}
	if run.Shards > 1 {
		return gfs.SimulateSharded(cfg, rc, run.Shards, run.Workers, run.Seed)
	}
	cluster, err := gfs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return cluster.Run(rc, rand.New(rand.NewSource(run.Seed)))
}

// GFSClosedRun drives a closed-loop (interactive) GFS simulation: Users
// concurrent users issue a request, wait for it, think, and reissue.
type GFSClosedRun struct {
	RunConfig
	// Users is the closed population size (total across shards).
	Users int
	// MeanThink is the mean exponential think time (seconds).
	MeanThink float64
}

// SimulateClosed builds a cluster from cfg and runs a closed-loop
// workload — the interactive-population shape of closed queueing analyses.
// With Shards > 1 the users are partitioned across independent cluster
// partitions and the merged trace is byte-identical for any Workers value,
// with or without run.Faults armed.
func SimulateClosed(cfg GFSConfig, run GFSClosedRun) (*Trace, error) {
	rc := gfs.ClosedRunConfig{
		Mix:       run.Mix,
		Users:     run.Users,
		MeanThink: run.MeanThink,
		Requests:  run.Requests,
		Faults:    run.Faults,
	}
	if run.Shards > 1 {
		return gfs.SimulateShardedClosed(cfg, rc, run.Shards, run.Workers, run.Seed)
	}
	cluster, err := gfs.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return cluster.RunClosed(rc, rand.New(rand.NewSource(run.Seed)))
}

// Replay executes a workload on the platform and returns the re-timed
// trace.
func Replay(tr *Trace, p Platform) (*Trace, error) {
	return replay.Run(tr, p)
}

// CrossExamOptions configures a cross-examination run.
type CrossExamOptions struct {
	// Requests is how many synthetic requests each approach synthesizes
	// and replays (required).
	Requests int
	// Seed makes the run reproducible; each approach chain gets its own
	// SplitMix64-derived rand stream.
	Seed int64
	// Workers bounds how many goroutines the approach chains (train →
	// synthesize → replay → score) and the original trace's reference side
	// share: 0 gives each its own, 1 is the serial fallback. Every
	// scorecard field except the wall-clock Scalability throughput is
	// independent of Workers.
	Workers int
	// SkipThroughput zeroes the wall-clock Scalability measurement so the
	// returned Scores are bit-identical across runs and worker counts.
	SkipThroughput bool
}

// CrossExamine scores the three standard approaches (trained on tr) on the
// Table 1 criteria, replaying each approach's synthetic workload on p.
// Each approach's whole chain — training included — runs as one task of
// the worker pool.
func CrossExamine(tr *Trace, p Platform, opts CrossExamOptions) ([]Scores, error) {
	if opts.Requests <= 0 {
		return nil, fmt.Errorf("dcmodel: cross-examination needs a positive Requests count: %w", ErrBadConfig)
	}
	// The three chains train on one prepared input; whichever worker gets
	// there first prepares it.
	prepare := sync.OnceValues(func() (*trace.Prepared, error) { return trace.Prepare(tr) })
	approaches := make([]crossexam.Approach, 0, 3)
	for _, a := range []Approach{InBreadth, InDepth, Kooza} {
		approaches = append(approaches, crossexamApproach(prepare, a, p))
	}
	return crossexam.Evaluate(tr, approaches, opts.Requests, p, crossexam.Options{
		Seed:           opts.Seed,
		Workers:        opts.Workers,
		SkipThroughput: opts.SkipThroughput,
	})
}

// crossexamApproach wraps one modeling approach — trained by the trainers
// the Train facade dispatches to — as a cross-examination entrant. Knobs
// counts the user-tunable training knobs of each approach (the paper's
// "flexibility" axis); the in-depth model times its own arrivals. Setup
// also lowers the trained model to its analytical twin on the same
// platform, so the scorecard carries the twin-vs-simulation deviation
// column next to the simulated fidelity proxies.
func crossexamApproach(prepare func() (*trace.Prepared, error), a Approach, p Platform) crossexam.Approach {
	knobs := map[Approach]int{InBreadth: 3, InDepth: 1, Kooza: 5}[a]
	return crossexam.Approach{
		Name:      a.String(),
		Knobs:     knobs,
		SelfTimed: a == InDepth,
		Setup: func(ca *crossexam.Approach) error {
			m, err := trainApproach(prepare, a, trainSettings{})
			if err != nil {
				return fmt.Errorf("dcmodel: %s: %w", a, err)
			}
			ca.Synthesize, ca.NumParams = m.Synthesize, m.NumParams()
			tw, err := BuildTwin(m, p)
			if err != nil {
				return fmt.Errorf("dcmodel: %s twin: %w", a, err)
			}
			ca.Twin = tw
			return nil
		},
	}
}

// SynthesizeSharded fans one model's synthesis across shards: shard s
// generates its share of the n requests with the rand stream
// prand.Derive(seed, s), and the shard streams are stitched end-to-end on
// the time axis (each shard's timeline is offset by the end of the
// previous shard's, plus one mean interarrival gap). The result depends
// only on (n, shards, seed) — workers merely bounds concurrency — at the
// cost of resetting the model's Markov-walk state at the shards-1 stitch
// boundaries. synthesize must be safe for concurrent use with distinct
// *rand.Rand instances, which all trained models in this module are.
func SynthesizeSharded(synthesize func(n int, r *rand.Rand) (*Trace, error), n, shards, workers int, seed int64) (*Trace, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dcmodel: need >= 1 shard, got %d", shards)
	}
	if n < shards {
		return nil, fmt.Errorf("dcmodel: %d requests cannot cover %d shards", n, shards)
	}
	quota := make([]int, shards)
	base, extra := n/shards, n%shards
	for s := range quota {
		quota[s] = base
		if s < extra {
			quota[s]++
		}
	}
	parts := make([]*Trace, shards)
	err := par.Do(shards, workers, func(s int) error {
		tr, err := synthesize(quota[s], prand.New(seed, uint64(s)))
		if err != nil {
			return fmt.Errorf("dcmodel: shard %d: %w", s, err)
		}
		if tr.Len() != quota[s] {
			return fmt.Errorf("dcmodel: shard %d synthesized %d requests, want %d", s, tr.Len(), quota[s])
		}
		parts[s] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := &Trace{Requests: make([]Request, 0, n)}
	var offset float64
	for _, part := range parts {
		var end float64
		for _, req := range part.Requests {
			req.Arrival += offset
			for i := range req.Spans {
				req.Spans[i].Start += offset
				if e := req.Spans[i].Start + req.Spans[i].Duration; e > end {
					end = e
				}
			}
			if req.Arrival > end {
				end = req.Arrival
			}
			req.ID = int64(len(merged.Requests))
			merged.Requests = append(merged.Requests, req)
		}
		// Advance by the shard's span plus one mean gap so streams do not
		// overlap at the stitch point.
		span := end - offset
		offset = end + span/float64(part.Len())
	}
	sort.SliceStable(merged.Requests, func(i, j int) bool {
		return merged.Requests[i].Arrival < merged.Requests[j].Arrival
	})
	for i := range merged.Requests {
		merged.Requests[i].ID = int64(i)
	}
	return merged, nil
}

// RenderScores renders the Table 1 regeneration (qualitative matrix plus
// the measured scorecard).
func RenderScores(scores []Scores) string { return crossexam.Render(scores) }

// RenderScoresComparison renders the fault-regime cross-examination: the
// healthy baseline scorecard next to a degraded regime's, one delta per
// measured criterion (see CrossExamine with a Platform whose Faults field
// is armed, and Simulate with RunConfig.Faults).
func RenderScoresComparison(healthy, degraded []Scores) string {
	return crossexam.RenderComparison(healthy, degraded)
}

// Model-serving daemon re-exports (cmd/dcmodeld is a thin wrapper over
// these; embedders can run the same server in-process).
type (
	// ModelServer is the long-running serving engine behind dcmodeld: a
	// sliding ingest window, online-trained warm models with chi-square
	// drift detection, and a bounded work queue with backpressure.
	ModelServer = serve.Server
	// ServeConfig tunes a ModelServer.
	ServeConfig = serve.Config
)

// DefaultServeConfig returns the daemon defaults (8192-request window,
// 64-deep work queue, 30 s staleness retrain, p < 0.001 drift trigger).
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewServer builds a ModelServer from cfg; zero-valued fields take the
// DefaultServeConfig values. Callers must Close it (or drive it through
// Serve/ListenAndServe, which close on context cancellation).
func NewServer(cfg ServeConfig) (*ModelServer, error) { return serve.New(cfg) }
