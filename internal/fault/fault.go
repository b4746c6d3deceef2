// Package fault is the deterministic fault-injection engine of the
// toolkit: it generates seed-stable failure/repair timelines for a set of
// servers and answers point-in-time availability queries against them.
//
// Each server alternates between an UP state (exponentially distributed
// with mean MTBF) and a DOWN state (exponentially distributed with mean
// MTTR) — a two-state Markov-modulated process, the classic availability
// model. On top of the independent per-server processes, servers can be
// grouped into racks sharing a second failure/repair process (power or
// top-of-rack-switch failures): a server is down whenever its own process
// OR its rack's process is down, which correlates failures within a rack.
//
// Every timeline is a fixed function of (Config, server index) alone: each
// per-server and per-rack process draws from its own SplitMix64 stream
// derived from Config.Seed via internal/prand, and intervals are extended
// lazily but cached, so queries in any order — from any number of worker
// goroutines partitioned over shards — observe one immutable failure
// history. That property is what keeps the sharded GFS simulation
// byte-identical for any worker count with faults armed.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dcmodel/internal/errs"
	"dcmodel/internal/prand"
)

// Config describes a fault scenario. The zero value (and a nil *Config)
// means no faults.
type Config struct {
	// MTBF is the mean time between failures of one server, in seconds
	// (exponential UP-state holding time). Required (> 0).
	MTBF float64 `json:"mtbf"`
	// MTTR is the mean time to repair of one server, in seconds
	// (exponential DOWN-state holding time). Required (> 0).
	MTTR float64 `json:"mttr"`
	// RackSize, when > 1, groups servers into racks of this many
	// consecutive indices sharing a correlated failure process.
	RackSize int `json:"rack_size,omitempty"`
	// RackMTBF is the mean time between whole-rack failures (seconds).
	// Defaults to 8x MTBF when RackSize > 1.
	RackMTBF float64 `json:"rack_mtbf,omitempty"`
	// RackMTTR is the mean time to repair a rack (seconds). Defaults to
	// MTTR when RackSize > 1.
	RackMTTR float64 `json:"rack_mttr,omitempty"`
	// Timeout is the client-observed timeout before a request attempt
	// against a down server is abandoned, in seconds. Defaults to 10 ms.
	Timeout float64 `json:"timeout,omitempty"`
	// Backoff is the base of the client's exponential retry backoff, in
	// seconds (attempt k waits Backoff * 2^k after its timeout). Defaults
	// to 2 ms.
	Backoff float64 `json:"backoff,omitempty"`
	// RereplBytes is the number of bytes the master re-replicates on a
	// detected chunk failover (background traffic on the surviving
	// replica). Defaults to 1 MiB; negative disables re-replication.
	RereplBytes int64 `json:"rerepl_bytes,omitempty"`
	// Seed selects the failure-history stream family. Defaults to 1.
	Seed int64 `json:"seed,omitempty"`
}

// Defaults for the optional knobs.
const (
	DefaultTimeout     = 10e-3
	DefaultBackoff     = 2e-3
	DefaultRereplBytes = 1 << 20
)

// WithDefaults returns a copy of c with the optional zero fields filled.
func (c Config) WithDefaults() Config {
	if c.RackSize > 1 {
		if c.RackMTBF <= 0 {
			c.RackMTBF = 8 * c.MTBF
		}
		if c.RackMTTR <= 0 {
			c.RackMTTR = c.MTTR
		}
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.RereplBytes == 0 {
		c.RereplBytes = DefaultRereplBytes
	}
	if c.RereplBytes < 0 {
		c.RereplBytes = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MaxAttempts bounds one request's retry loop in the GFS simulator and in
// replay; past it the request runs where it is regardless of faults — a
// termination backstop far above any realistic retry count.
const MaxAttempts = 256

// RetryBackoff is the client's exponential backoff before attempt k+1,
// Backoff * 2^k, with the exponent capped at 16 so pathological schedules
// stay finite.
func (c Config) RetryBackoff(attempt int) float64 {
	if attempt > 16 {
		attempt = 16
	}
	return c.Backoff * float64(int64(1)<<uint(attempt))
}

// Validate checks the scenario. All defects wrap errs.ErrBadConfig so
// callers can branch with errors.Is.
func (c Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fault: %s: %w", fmt.Sprintf(format, args...), errs.ErrBadConfig)
	}
	if !(c.MTBF > 0) {
		return bad("MTBF must be > 0 seconds, got %g", c.MTBF)
	}
	if !(c.MTTR > 0) {
		return bad("MTTR must be > 0 seconds, got %g", c.MTTR)
	}
	if c.RackSize < 0 {
		return bad("RackSize must be >= 0, got %d", c.RackSize)
	}
	if c.RackMTBF < 0 || c.RackMTTR < 0 {
		return bad("rack MTBF/MTTR must be >= 0, got %g/%g", c.RackMTBF, c.RackMTTR)
	}
	if c.Timeout < 0 {
		return bad("Timeout must be >= 0 seconds, got %g", c.Timeout)
	}
	if c.Backoff < 0 {
		return bad("Backoff must be >= 0 seconds, got %g", c.Backoff)
	}
	if c.Seed < 0 {
		return bad("Seed must be >= 0, got %d", c.Seed)
	}
	return nil
}

// Interval is one contiguous downtime window [Start, End).
type Interval struct {
	Start float64
	End   float64
}

// process is one lazily extended two-state (up/down) renewal process. All
// fields are guarded by mu; the generated prefix is immutable, so cached
// queries never change their answer when the timeline is extended.
type process struct {
	mu   sync.Mutex
	r    *rand.Rand
	mtbf float64
	mttr float64
	// downs is the generated downtime prefix, ordered and disjoint.
	downs []Interval
	// horizon is the time up to which the timeline is fully generated:
	// every down interval starting before horizon is already in downs.
	horizon float64
}

func newProcess(mtbf, mttr float64, r *rand.Rand) *process {
	return &process{r: r, mtbf: mtbf, mttr: mttr}
}

// extend generates the timeline until the horizon passes t. Callers hold mu.
func (p *process) extend(t float64) {
	for p.horizon <= t {
		up := p.r.ExpFloat64() * p.mtbf
		down := p.r.ExpFloat64() * p.mttr
		start := p.horizon + up
		p.downs = append(p.downs, Interval{Start: start, End: start + down})
		p.horizon = start + down
	}
}

// query returns whether the process is down at time t and, if it is, the
// end of the enclosing downtime interval.
func (p *process) query(t float64) (down bool, until float64) {
	if t < 0 {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extend(t)
	// Binary search for the first interval ending after t.
	lo, hi := 0, len(p.downs)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.downs[mid].End <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.downs) && p.downs[lo].Start <= t {
		return true, p.downs[lo].End
	}
	return false, 0
}

// nextDown returns the start of the earliest downtime interval ending
// after t — t itself when t is inside one. extend guarantees such an
// interval always exists in the generated prefix.
func (p *process) nextDown(t float64) float64 {
	if t < 0 {
		t = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extend(t)
	lo, hi := 0, len(p.downs)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.downs[mid].End <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if iv := p.downs[lo]; iv.Start > t {
		return iv.Start
	}
	return t
}

// Schedule is the materialized failure history of a set of servers under
// one scenario. It is safe for concurrent use; all answers are a fixed
// function of (Config, stream, server index, time).
type Schedule struct {
	cfg     Config
	servers []*process
	racks   []*process // nil when RackSize <= 1
}

// streams per entity: server i draws from sub-stream 2i, rack j from
// sub-stream 2j+1 of the schedule's stream family, so adding racks never
// perturbs server histories.
func entityRand(seed int64, stream uint64, entity uint64) *rand.Rand {
	return prand.New(prand.Derive(seed, stream), entity)
}

// NewSchedule builds the failure history of `servers` servers under cfg.
// The stream parameter partitions one Config into independent families
// (e.g. one per simulation shard): histories are a fixed function of
// (cfg, stream, server index) — never of query order or worker count.
// cfg is validated and defaulted; nil-scenario callers should not build a
// Schedule at all.
func NewSchedule(cfg Config, servers int, stream uint64) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if servers < 1 {
		return nil, fmt.Errorf("fault: need >= 1 server, got %d: %w", servers, errs.ErrBadConfig)
	}
	cfg = cfg.WithDefaults()
	s := &Schedule{cfg: cfg, servers: make([]*process, servers)}
	for i := range s.servers {
		s.servers[i] = newProcess(cfg.MTBF, cfg.MTTR, entityRand(cfg.Seed, stream, uint64(2*i)))
	}
	if cfg.RackSize > 1 {
		nRacks := (servers + cfg.RackSize - 1) / cfg.RackSize
		s.racks = make([]*process, nRacks)
		for j := range s.racks {
			s.racks[j] = newProcess(cfg.RackMTBF, cfg.RackMTTR, entityRand(cfg.Seed, stream, uint64(2*j+1)))
		}
	}
	return s, nil
}

// Config returns the defaulted scenario the schedule was built from.
func (s *Schedule) Config() Config { return s.cfg }

// Servers returns the number of servers covered.
func (s *Schedule) Servers() int { return len(s.servers) }

// rackOf returns the rack process of a server, or nil.
func (s *Schedule) rackOf(server int) *process {
	if s.racks == nil {
		return nil
	}
	return s.racks[server/s.cfg.RackSize]
}

// DownAt reports whether the server is down at time t (its own process or
// its rack's). Out-of-range servers are reported up, so callers replaying
// traces with more servers than the schedule covers degrade gracefully.
func (s *Schedule) DownAt(server int, t float64) bool {
	if server < 0 || server >= len(s.servers) {
		return false
	}
	if down, _ := s.servers[server].query(t); down {
		return true
	}
	if rk := s.rackOf(server); rk != nil {
		if down, _ := rk.query(t); down {
			return true
		}
	}
	return false
}

// NextUp returns the earliest time >= t at which the server is up. If the
// server is up at t, it returns t.
func (s *Schedule) NextUp(server int, t float64) float64 {
	if server < 0 || server >= len(s.servers) {
		return t
	}
	rk := s.rackOf(server)
	for {
		moved := false
		if down, until := s.servers[server].query(t); down {
			t, moved = until, true
		}
		if rk != nil {
			if down, until := rk.query(t); down {
				t, moved = until, true
			}
		}
		if !moved {
			return t
		}
	}
}

// NextFailure returns the earliest time >= t at which the server is down —
// t itself when it is already down, +Inf for out-of-range servers. A finite
// answer always exists: the failure processes alternate forever.
func (s *Schedule) NextFailure(server int, t float64) float64 {
	if server < 0 || server >= len(s.servers) {
		return math.Inf(1)
	}
	next := s.servers[server].nextDown(t)
	if rk := s.rackOf(server); rk != nil {
		if rn := rk.nextDown(t); rn < next {
			next = rn
		}
	}
	return next
}
