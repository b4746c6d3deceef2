// Package serve is the model-serving daemon behind cmd/dcmodeld: a
// stdlib-only HTTP service that keeps the paper's workload models warm
// under live traffic. It ingests trace spans over a streaming POST
// endpoint into a sliding window, maintains the KOOZA / in-breadth /
// in-depth models with an online-training loop (incremental Markov
// transition counts, periodic alias-table refreeze, and a chi-square
// drift trigger that forces retrains), and answers synthesis,
// characterization and replay queries from a bounded work queue with
// explicit backpressure: a full queue is a 429 with Retry-After, never an
// unbounded buffer.
//
// One lock, ingestMu, orders the writes: it guards the window, the drift
// accumulator and the retrain circuit breaker, not training. A retrain
// holds it twice and briefly — to copy the window out and detach the
// accumulator, and later to install the generation (or give the
// transitions back) — and fits the three models in between with no lock
// held, side by side; ingestion, /healthz and /metrics carry on beside it.
// One retrain runs at a time, and the request that triggered it waits for
// it and reports how it went.
//
// Endpoints:
//
//	POST /v1/ingest       stream trace spans (WriteCSV format) into the window
//	GET  /v1/synthesize   generate a synthetic workload from a warm model
//	GET  /v1/characterize cross-examination scorecard of the warm models
//	POST /v1/replay       replay a streamed trace on the simulated platform
//	POST /v1/whatif       closed-form what-if query against a warm model's analytical twin
//	*    /v1/provision    POST runs the provisioning search on the warm models and the
//	                      window; GET returns the last auto-reprovision plan
//	*    /v1/faults       fault-scenario admin: GET reports, POST arms, DELETE disarms
//	GET  /v1/traces       sampled request span trees held by the trace ring
//	GET  /metrics         plain-text counters, gauges and latency histograms
//	GET  /healthz         liveness + model warmth + breaker/fault state
//
// Two failure-containment mechanisms keep one bad input from taking the
// daemon down: a retrain circuit breaker (consecutive retrain failures
// open it; the last good model generation keeps serving until a cooldown
// or a successful manual Retrain closes it), and the fault scenario, which
// degrades only the replay platform — synthesis and ingest stay healthy
// while replays exercise retries, failovers and re-replication.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcmodel/internal/fault"
	"dcmodel/internal/gfs"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/obs"
	"dcmodel/internal/optimize"
	"dcmodel/internal/par"
	"dcmodel/internal/replay"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// Config tunes the daemon. DefaultConfig returns the production defaults;
// zero fields of a hand-built Config are filled with the same defaults by
// New.
type Config struct {
	// Window is the sliding-window capacity in requests.
	Window int
	// QueueDepth bounds the pending work queue; a full queue returns 429.
	QueueDepth int
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// MaxSynth caps the n of one synthesize request.
	MaxSynth int
	// MaxIngestBytes caps one ingest request body.
	MaxIngestBytes int64
	// RequestTimeout is the per-request deadline for queued work.
	RequestTimeout time.Duration
	// RetrainMin is the minimum number of newly ingested requests before
	// a retrain is considered.
	RetrainMin int
	// RetrainInterval is the staleness bound: once the served model is
	// older than this and RetrainMin new requests arrived, a retrain fires
	// even without drift.
	RetrainInterval time.Duration
	// PollInterval is the background staleness-check cadence.
	PollInterval time.Duration
	// DriftP is the chi-square p-value below which the ingested stream is
	// declared drifted from the served model, forcing a retrain.
	DriftP float64
	// DriftMinTransitions is the minimum observed storage transitions
	// before the drift test is consulted.
	DriftMinTransitions int64
	// BreakerThreshold is how many consecutive retrain failures open the
	// retrain circuit breaker. While open, the drift/staleness triggers
	// stop attempting retrains (the last good generation keeps serving)
	// until BreakerCooldown elapses, so one poisoned window cannot wedge
	// the poll loop into a failing-retrain-per-second spin.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker suppresses automatic
	// retrains. The first trigger after the cooldown is the half-open
	// probe: success closes the breaker, failure reopens it.
	BreakerCooldown time.Duration
	// StorageRegions is the storage Markov state count (shared by the
	// KOOZA trainer and the drift quantization).
	StorageRegions int
	// DiskBlocks is the fixed LBN address-space size used to map LBNs to
	// regions. It must be fixed (not inferred per batch) so the drift
	// accumulator and every retrained model share one quantization.
	DiskBlocks int64
	// Smoothing is the Laplace smoothing of the trained chains.
	Smoothing float64
	// Platform is the replay hardware; nil NewServer selects the default
	// GFS chunkserver.
	Platform replay.Platform
	// Obs arms the observability layer: live span sampling served by
	// GET /v1/traces, per-stage wall/alloc histograms, and optionally the
	// /debug/pprof/ profiling endpoints. nil keeps the daemon's /metrics
	// output byte-identical to a daemon built before the layer existed.
	Obs *obs.Options
	// AutoProvision, when non-nil, arms the closed-loop reprovisioning
	// hook: every drift-triggered retrain re-runs the provisioning search
	// with this request against the fresh model generation, in the
	// background, and publishes the plan on GET /v1/provision. The
	// request's offline-only fields (Spec, Model, Trace) are ignored —
	// the daemon always provisions for its ingested window.
	AutoProvision *optimize.Request
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Window:              8192,
		QueueDepth:          64,
		Workers:             0,
		MaxSynth:            200_000,
		MaxIngestBytes:      256 << 20,
		RequestTimeout:      30 * time.Second,
		RetrainMin:          64,
		RetrainInterval:     30 * time.Second,
		PollInterval:        time.Second,
		DriftP:              0.001,
		DriftMinTransitions: 512,
		BreakerThreshold:    3,
		BreakerCooldown:     time.Minute,
		StorageRegions:      32,
		DiskBlocks:          128 << 20,
		Smoothing:           0.01,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxSynth <= 0 {
		c.MaxSynth = d.MaxSynth
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = d.MaxIngestBytes
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.RetrainMin <= 0 {
		c.RetrainMin = d.RetrainMin
	}
	if c.RetrainInterval <= 0 {
		c.RetrainInterval = d.RetrainInterval
	}
	if c.PollInterval <= 0 {
		c.PollInterval = d.PollInterval
	}
	if c.DriftP <= 0 {
		c.DriftP = d.DriftP
	}
	if c.DriftMinTransitions <= 0 {
		c.DriftMinTransitions = d.DriftMinTransitions
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	if c.StorageRegions <= 0 {
		c.StorageRegions = d.StorageRegions
	}
	if c.DiskBlocks <= 0 {
		c.DiskBlocks = d.DiskBlocks
	}
	if c.Smoothing <= 0 {
		c.Smoothing = d.Smoothing
	}
	if c.Platform.NewServer == nil {
		// Only the hardware constructor is defaulted: a Faults scenario or
		// FaultStream set on an otherwise-zero Platform must survive.
		c.Platform.NewServer = gfs.DefaultServerHW
	}
	return c
}

// modelSet is one atomically swapped generation of warm models, together
// with what the read path derives from it. The derived artefacts are pure
// functions of the generation, so they live and die with it: a retrain
// stores a fresh modelSet and nothing is ever invalidated by hand.
type modelSet struct {
	Kooza     *kooza.Model
	InBreadth *inbreadth.Model
	InDepth   *indepth.Model
	// RefStorage is the pooled storage-region chain the drift test
	// compares freshly ingested transitions against.
	RefStorage *markov.Chain
	TrainedAt  time.Time
	TrainedOn  int   // window requests trained on
	TotalAt    int64 // window.total at training time

	// derivedMu guards the two fields below, never the work behind them:
	// each entry is a sync.OnceValues, so concurrent requests for the same
	// entry wait for one evaluation and requests for different entries do
	// not wait for each other.
	derivedMu sync.Mutex
	// twins holds the analytical twins compiled from this generation.
	twins map[twinKey]func() (*twin.Twin, error)
	// char is the last /v1/characterize answer of this generation.
	char    func() (characterizeResponse, error)
	charKey charKey
}

// twinKey names one compiled twin of a generation: a catalog platform (or
// ownPlatform for the daemon's configured hardware) and a model.
type twinKey struct{ platform, model string }

// ownPlatform keys the twins of the daemon's own hardware. No catalog
// platform is named by the empty string (optimize.PlatformByName refuses
// it), so the two cannot collide.
const ownPlatform = ""

// twin returns the generation's twin for key, compiled by the first caller
// to ask for it and by nobody after.
func (ms *modelSet) twin(key twinKey, compile func() (*twin.Twin, error)) (*twin.Twin, error) {
	ms.derivedMu.Lock()
	get := ms.twins[key]
	if get == nil {
		if ms.twins == nil {
			ms.twins = make(map[twinKey]func() (*twin.Twin, error))
		}
		get = sync.OnceValues(compile)
		ms.twins[key] = get
	}
	ms.derivedMu.Unlock()
	return get()
}

// charKey is everything a characterize answer depends on besides the
// generation: the window position (its monotone total), the synthetic
// sample size, the seed and the armed fault scenario (by identity — every
// POST /v1/faults stores a fresh one, and the key keeps it reachable, so
// its address cannot come back as another scenario).
type charKey struct {
	total  int64
	n      int
	seed   int64
	faults *fault.Config
}

// characterize returns the generation's answer for key: the kept one when
// the last request had the same key (waiting for it if it is still being
// evaluated), else evaluate's, which replaces it.
func (ms *modelSet) characterize(key charKey, evaluate func() (characterizeResponse, error)) (characterizeResponse, error) {
	ms.derivedMu.Lock()
	if ms.char == nil || ms.charKey != key {
		ms.char, ms.charKey = sync.OnceValues(evaluate), key
	}
	get := ms.char
	ms.derivedMu.Unlock()
	return get()
}

// Server is the daemon: sliding window, warm models, bounded work queue.
type Server struct {
	cfg             Config
	blocksPerRegion int64

	win     *window
	pool    *par.Pool
	metrics *metrics
	model   atomic.Pointer[modelSet]

	// ingestMu serializes every change to the window and to the drift
	// accumulator, keeping the two consistent with each other, and guards
	// the retrain bookkeeping below: the circuit breaker and the one
	// training slot. It is held for a batch of requests or for the two short
	// ends of a retrain — the snapshot and the install — and never while
	// models are fitted.
	ingestMu sync.Mutex
	// drift counts the storage transitions ingested since the snapshot of
	// the last retrain. A retrain takes it along and leaves spareDrift,
	// empty, in its place; when the retrain ends the two have swapped roles.
	drift, spareDrift *markov.Accumulator
	// regionSeq is the scratch ingestLocked quantizes one request's storage
	// spans into.
	regionSeq    []int
	retrainFails int       // consecutive retrain failures
	breakerUntil time.Time // automatic retrains suppressed until then
	// retraining is the training slot: true from a retrain's snapshot to
	// its install. retrainIdle (on ingestMu) wakes Retrain callers waiting
	// for it.
	retraining  bool
	retrainIdle *sync.Cond
	// parkTrainer, when set (tests only, under ingestMu), is called by each
	// retrain after its snapshot and before it trains, with no lock held.
	parkTrainer func()

	// faults is the armed fault scenario for degraded replay (nil =
	// healthy). Swapped atomically by the /v1/faults admin endpoint.
	faults atomic.Pointer[fault.Config]

	// Closed-loop reprovisioning state: the last auto-published plan
	// (GET /v1/provision), the single-flight guard, and the WaitGroup
	// Close drains so no search outlives the daemon.
	autoPlan       atomic.Pointer[provisionResponse]
	reprovisioning atomic.Bool
	provWG         sync.WaitGroup

	// Observability (nil unless cfg.Obs arms the layer): the live tracer
	// head-sampling pipeline requests, the ring buffer behind
	// GET /v1/traces, and the stage histogram families.
	spanner    *obs.Spanner
	traces     *obs.TraceRing
	stageSecs  *obs.HistogramVec
	stageAlloc *obs.HistogramVec

	mux      *http.ServeMux
	closed   atomic.Bool
	stopPoll chan struct{}
	pollWG   sync.WaitGroup
}

// New builds a Server from cfg (zero fields defaulted) and starts its
// worker pool and background staleness poller. Callers must Close it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DriftP >= 1 {
		return nil, fmt.Errorf("serve: DriftP must be in (0,1), got %g", cfg.DriftP)
	}
	if cfg.Window < 3 {
		return nil, fmt.Errorf("serve: window must hold >= 3 requests, got %d", cfg.Window)
	}
	bpr := cfg.DiskBlocks / int64(cfg.StorageRegions)
	if bpr < 1 {
		bpr = 1
	}
	acc, err := markov.NewAccumulator(cfg.StorageRegions, cfg.Smoothing)
	if err != nil {
		return nil, fmt.Errorf("serve: drift accumulator: %w", err)
	}
	spare, _ := markov.NewAccumulator(cfg.StorageRegions, cfg.Smoothing) // same arguments
	s := &Server{
		cfg:             cfg,
		blocksPerRegion: bpr,
		win:             newWindow(cfg.Window),
		pool:            par.NewPool(cfg.Workers, cfg.QueueDepth),
		metrics:         newMetrics(),
		drift:           acc,
		spareDrift:      spare,
		stopPoll:        make(chan struct{}),
	}
	s.retrainIdle = sync.NewCond(&s.ingestMu)
	if cfg.Platform.Faults != nil {
		// A scenario armed on the configured platform seeds the admin
		// state, so /v1/faults reports and can disarm it.
		armed := cfg.Platform.Faults.WithDefaults()
		if err := armed.Validate(); err != nil {
			return nil, fmt.Errorf("serve: platform fault scenario: %w", err)
		}
		s.faults.Store(&armed)
	}
	if cfg.Obs != nil {
		o := cfg.Obs.WithDefaults()
		s.traces = obs.NewTraceRing(o.TraceCapacity)
		if o.SampleEvery >= 1 {
			s.spanner, err = obs.NewSpanner(o.SampleEvery, obs.Tee(s.traces, o.Recorder))
			if err != nil {
				return nil, fmt.Errorf("serve: tracer: %w", err)
			}
		}
		s.stageSecs, s.stageAlloc = s.metrics.stageSeconds, s.metrics.stageAlloc
	}
	// Gauges owned by other components render as the bare tail of the
	// exposition, collected at scrape time.
	s.metrics.reg.OnScrape(s.scrapeGauges)
	s.mux = s.buildMux()
	s.pollWG.Add(1)
	go s.pollLoop()
	return s, nil
}

// Faults returns the armed fault scenario for degraded replay, or nil when
// the daemon replays on healthy hardware.
func (s *Server) Faults() *fault.Config { return s.faults.Load() }

// ArmFaults validates and arms a fault scenario: subsequent /v1/replay
// work runs on the degraded platform. It is the programmatic sibling of
// POST /v1/faults.
func (s *Server) ArmFaults(cfg fault.Config) error {
	armed := cfg.WithDefaults()
	if err := armed.Validate(); err != nil {
		return err
	}
	s.faults.Store(&armed)
	return nil
}

// DisarmFaults returns replay to healthy hardware.
func (s *Server) DisarmFaults() { s.faults.Store(nil) }

// replayPlatform is the configured platform with the armed fault scenario
// (if any) applied.
func (s *Server) replayPlatform() replay.Platform {
	p := s.cfg.Platform
	p.Faults = s.faults.Load()
	return p
}

// pollLoop is the background staleness ticker: it fires retrains that
// ingestion alone would not (e.g. a quiet stream that drifted earlier).
func (s *Server) pollLoop() {
	defer s.pollWG.Done()
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopPoll:
			return
		case <-t.C:
			s.maybeRetrain(nil)
		}
	}
}

// Close drains the daemon: stops the poller, stops admitting queued work
// and waits for in-flight jobs. It does not wait for HTTP connections —
// pair it with http.Server.Shutdown (Serve does both).
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopPoll)
	s.pollWG.Wait()
	s.provWG.Wait()
	s.pool.Close()
}

// Models returns the currently served model generation (nil while cold).
func (s *Server) Models() (kz *kooza.Model, ib *inbreadth.Model, id *indepth.Model, trainedOn int) {
	ms := s.model.Load()
	if ms == nil {
		return nil, nil, nil, 0
	}
	return ms.Kooza, ms.InBreadth, ms.InDepth, ms.TrainedOn
}

// regionOf maps an LBN into the fixed drift/storage quantization.
func (s *Server) regionOf(lbn int64) int {
	if lbn < 0 {
		return 0
	}
	st := int(lbn / s.blocksPerRegion)
	if st >= s.cfg.StorageRegions {
		return s.cfg.StorageRegions - 1
	}
	return st
}

// ingestLocked folds decoded requests into the drift accumulator and the
// window. Callers hold ingestMu.
func (s *Server) ingestLocked(reqs []trace.Request) {
	for i := range reqs {
		s.regionSeq = s.storageRegions(s.regionSeq[:0], reqs[i].Spans)
		if len(s.regionSeq) > 0 {
			// States are in range by construction, so Observe cannot fail.
			_ = s.drift.Observe(s.regionSeq)
		}
	}
	s.win.addBatch(reqs)
	s.metrics.ingested.Add(int64(len(reqs)))
}

// Ingest folds a whole trace into the window (the programmatic sibling of
// POST /v1/ingest, used by tests and embedders), then runs the online
// training decision once.
func (s *Server) Ingest(tr *trace.Trace) (retrained bool, reason string, err error) {
	if tr == nil || tr.Len() == 0 {
		return false, "", trace.ErrEmptyTrace
	}
	s.ingestMu.Lock()
	s.ingestLocked(tr.Requests)
	s.ingestMu.Unlock()
	return s.maybeRetrain(nil)
}
