// Package optimize is the closed-loop provisioning optimizer: a
// seed-stable, parallel search over a typed configuration space — server
// count, hardware platform, DVFS operating point and replication factor —
// for the cheapest configuration meeting a latency objective.
//
// The search is twin-first: every candidate is evaluated in closed form
// against the analytical twin (microseconds, no sampling), and only the
// Pareto frontier of the feasible set is validated by discrete-event
// simulation of the SQS farm. The search is a deterministic coordinate
// descent: a farm's predicted latency falls monotonically in its server
// count, so one sweep of that coordinate at a fixed point finds the
// cheapest feasible size there. The resulting Plan is byte-identical for
// any worker count.
package optimize

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dcmodel/internal/errs"
	"dcmodel/internal/gfs"
	"dcmodel/internal/hw"
	"dcmodel/internal/par"
	"dcmodel/internal/power"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// Config is one point of the configuration space. Field order is the
// canonical tie-break order of the search (servers, platform, dvfs,
// replicas); the JSON tags are a stable wire contract shared by the
// facade, cmd/provision and /v1/provision.
type Config struct {
	// Servers is the balanced farm size.
	Servers int `json:"servers"`
	// Platform names a hardware platform from the catalog (Platforms).
	Platform string `json:"platform"`
	// DVFS names a CPU operating point from power.DVFSStates.
	DVFS string `json:"dvfs"`
	// Replicas is the replication factor (1 = unreplicated).
	Replicas int `json:"replicas"`
}

// less is the canonical total order on configurations — the deterministic
// tie-break every selection step falls back to.
func (c Config) less(o Config) bool {
	if c.Servers != o.Servers {
		return c.Servers < o.Servers
	}
	if c.Platform != o.Platform {
		return c.Platform < o.Platform
	}
	if c.DVFS != o.DVFS {
		return c.DVFS < o.DVFS
	}
	return c.Replicas < o.Replicas
}

// Space bounds the search. Zero fields take the documented defaults.
type Space struct {
	// MinServers / MaxServers bound the farm size (defaults 1 and 64).
	MinServers int `json:"min_servers,omitempty"`
	MaxServers int `json:"max_servers,omitempty"`
	// Platforms lists the candidate hardware platforms by catalog name
	// (default: just "big-core").
	Platforms []string `json:"platforms,omitempty"`
	// DVFSStates lists the candidate CPU operating points by name
	// (default: just "P0", the nominal point).
	DVFSStates []string `json:"dvfs_states,omitempty"`
	// MinReplicas / MaxReplicas bound the replication factor (defaults 1
	// and MinReplicas).
	MinReplicas int `json:"min_replicas,omitempty"`
	MaxReplicas int `json:"max_replicas,omitempty"`
}

// spaceMaxServers caps MaxServers, mirroring the twin's SLO search bound.
const spaceMaxServers = 4096

func (s Space) withDefaults() Space {
	if s.MinServers <= 0 {
		s.MinServers = 1
	}
	if s.MaxServers <= 0 {
		s.MaxServers = 64
	}
	if len(s.Platforms) == 0 {
		s.Platforms = []string{"big-core"}
	}
	if len(s.DVFSStates) == 0 {
		s.DVFSStates = []string{"P0"}
	}
	if s.MinReplicas <= 0 {
		s.MinReplicas = 1
	}
	if s.MaxReplicas < s.MinReplicas {
		s.MaxReplicas = s.MinReplicas
	}
	return s
}

// SpaceDefaults returns the space with zero fields defaulted — the same
// normalization NewEvaluator applies, exported so callers compiling the
// per-platform twin table iterate the same platform list the search will.
func SpaceDefaults(s Space) Space { return s.withDefaults() }

func (s Space) validate() error {
	if s.MaxServers < s.MinServers {
		return badConfig("space max_servers %d below min_servers %d", s.MaxServers, s.MinServers)
	}
	if s.MaxServers > spaceMaxServers {
		return badConfig("space max_servers %d above the %d cap", s.MaxServers, spaceMaxServers)
	}
	for _, p := range s.Platforms {
		if _, ok := PlatformByName(p); !ok {
			return badConfig("unknown platform %q (catalog: %v)", p, platformNames())
		}
	}
	for _, d := range s.DVFSStates {
		if _, ok := power.DVFSStateByName(d); !ok {
			return badConfig("unknown dvfs state %q", d)
		}
	}
	return nil
}

// contains reports whether c lies inside the space.
func (s Space) contains(c Config) bool {
	if c.Servers < s.MinServers || c.Servers > s.MaxServers {
		return false
	}
	if c.Replicas < s.MinReplicas || c.Replicas > s.MaxReplicas {
		return false
	}
	return slices.Contains(s.Platforms, c.Platform) && slices.Contains(s.DVFSStates, c.DVFS)
}

// Objective is the fitness function: feasibility is the latency quantile
// meeting the target; among feasible configurations the hourly cost —
// Servers * (ServerCost + WattCost * predicted watts per server) — is
// minimized.
type Objective struct {
	// Quantile is the latency percentile of the SLO: 0.5, 0.95 or 0.99
	// (the three quantiles the twin reports). Default 0.95.
	Quantile float64 `json:"quantile,omitempty"`
	// TargetSeconds is the latency bound at that quantile (required).
	TargetSeconds float64 `json:"target_seconds"`
	// ServerCost is the fixed per-server hourly cost (default 1).
	ServerCost float64 `json:"server_cost,omitempty"`
	// WattCost is the hourly cost of one predicted watt (default 0.01).
	WattCost float64 `json:"watt_cost,omitempty"`
}

func (o Objective) withDefaults() Objective {
	if o.Quantile == 0 {
		o.Quantile = 0.95
	}
	if o.ServerCost == 0 {
		o.ServerCost = 1
	}
	if o.WattCost == 0 {
		o.WattCost = 0.01
	}
	return o
}

func (o Objective) validate() error {
	switch o.Quantile {
	case 0.5, 0.95, 0.99:
	default:
		return badConfig("objective quantile must be 0.5, 0.95 or 0.99, got %g", o.Quantile)
	}
	if math.IsNaN(o.TargetSeconds) || math.IsInf(o.TargetSeconds, 0) || o.TargetSeconds <= 0 {
		return badConfig("objective target must be positive and finite, got %g", o.TargetSeconds)
	}
	if o.ServerCost < 0 || o.WattCost < 0 {
		return badConfig("objective costs must be non-negative")
	}
	return nil
}

// badConfig wraps a validation failure with the shared sentinel.
func badConfig(format string, args ...any) error {
	return fmt.Errorf("optimize: "+format+": %w", append(args, errs.ErrBadConfig)...)
}

// PlatformSpec is one catalog entry: a named hardware platform with its
// power model.
type PlatformSpec struct {
	// Name is the catalog key ("big-core", "small-core").
	Name string
	// NewServer constructs the platform's hardware model.
	NewServer func() *hw.Server
	// Power is the platform's linear power model.
	Power power.ServerPower
}

// Platforms returns the hardware catalog the optimizer searches over.
// "big-core" is the default GFS chunkserver (Xeon-class, the hardware
// every other experiment in the repo runs on); "small-core" is the Reddi
// et al. mobile-core configuration: half the clock at a fraction of the
// power.
func Platforms() []PlatformSpec {
	return []PlatformSpec{
		{Name: "big-core", NewServer: gfs.DefaultServerHW, Power: power.BigCoreServer()},
		{Name: "small-core", NewServer: smallCoreServerHW, Power: power.SmallCoreServer()},
	}
}

// smallCoreServerHW is the big-core chunkserver with a 1.2 GHz mobile
// core: identical disk, memory and network, half the CPU clock.
func smallCoreServerHW() *hw.Server {
	s := gfs.DefaultServerHW()
	s.CPU.Frequency = 1.2e9
	return s
}

// PlatformByName looks a platform up in the catalog.
func PlatformByName(name string) (PlatformSpec, bool) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, true
		}
	}
	return PlatformSpec{}, false
}

func platformNames() []string {
	var names []string
	for _, p := range Platforms() {
		names = append(names, p.Name)
	}
	return names
}

// Evaluation is the closed-form assessment of one configuration: the
// twin-predicted latency, the linear-model power draw and the resulting
// hourly cost. JSON tags are part of the Plan wire contract.
type Evaluation struct {
	Config Config `json:"config"`
	// Stable is false when the twin saturates at this configuration
	// (in-band, mirroring WhatIfAnswer.Stable — never an error).
	Stable bool `json:"stable"`
	// Feasible is Stable && QuantileSeconds <= the objective target.
	Feasible bool `json:"feasible"`
	// QuantileSeconds is the predicted latency at the objective quantile
	// (0 when unstable).
	QuantileSeconds float64 `json:"quantile_seconds"`
	// MeanSeconds is the predicted mean response time (0 when unstable).
	MeanSeconds float64 `json:"mean_seconds"`
	// Bottleneck names the twin's highest-utilization station.
	Bottleneck string `json:"bottleneck"`
	// BottleneckUtilization is that station's per-server utilization.
	BottleneckUtilization float64 `json:"bottleneck_utilization"`
	// WattsPerServer is the linear-power-model draw of one server at the
	// predicted utilizations, with the DVFS power scale applied to the CPU.
	WattsPerServer float64 `json:"watts_per_server"`
	// CostPerHour is Servers * (ServerCost + WattCost*WattsPerServer).
	CostPerHour float64 `json:"cost_per_hour"`
}

// better is the search's total order on evaluations: feasible before
// stable-infeasible before unstable; cheapest first among feasible,
// closest-to-target first among infeasible, least saturated first among
// unstable; the canonical config order breaks every remaining tie. Total
// and deterministic, so selection never depends on evaluation order.
func better(a, b Evaluation) bool {
	ra, rb := evalRank(a), evalRank(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 0: // feasible: cheapest, then fastest
		if a.CostPerHour != b.CostPerHour {
			return a.CostPerHour < b.CostPerHour
		}
		if a.QuantileSeconds != b.QuantileSeconds {
			return a.QuantileSeconds < b.QuantileSeconds
		}
	case 1: // stable but over target: closest to target, then cheapest
		if a.QuantileSeconds != b.QuantileSeconds {
			return a.QuantileSeconds < b.QuantileSeconds
		}
		if a.CostPerHour != b.CostPerHour {
			return a.CostPerHour < b.CostPerHour
		}
	default: // unstable: least saturated
		if a.BottleneckUtilization != b.BottleneckUtilization {
			return a.BottleneckUtilization < b.BottleneckUtilization
		}
	}
	return a.Config.less(b.Config)
}

func evalRank(e Evaluation) int {
	switch {
	case e.Feasible:
		return 0
	case e.Stable:
		return 1
	default:
		return 2
	}
}

// Evaluator answers "how good is this configuration" in closed form. It
// is safe for concurrent use; evaluations are pure functions of the
// configuration, memoized so repeated visits (and the final sweep) are
// free. The twin-vs-DES accounting behind the Plan's twin_evals/des_runs
// fields reads the memo size, which is independent of evaluation order.
type Evaluator struct {
	obj    Objective
	space  Space
	twins  map[twinKey]*twin.Twin
	powers map[string]power.ServerPower
	states map[string]power.DVFSState

	mu    sync.Mutex
	cache map[Config]Evaluation
}

type twinKey struct{ platform, dvfs string }

// NewEvaluator compiles the per-(platform, dvfs) twin table from the base
// twins (one per platform in the space) and the objective. A DVFS point
// stretches the CPU station demand by 1/FreqScale — constant scaling, so
// the station SCV is untouched and no recompilation is needed.
func NewEvaluator(baseTwins map[string]*twin.Twin, obj Objective, space Space) (*Evaluator, error) {
	obj = obj.withDefaults()
	space = space.withDefaults()
	if err := obj.validate(); err != nil {
		return nil, err
	}
	if err := space.validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		obj:    obj,
		space:  space,
		twins:  make(map[twinKey]*twin.Twin),
		powers: make(map[string]power.ServerPower),
		states: make(map[string]power.DVFSState),
		cache:  make(map[Config]Evaluation),
	}
	for _, name := range space.Platforms {
		base, ok := baseTwins[name]
		if !ok || base == nil {
			return nil, badConfig("no twin compiled for platform %q", name)
		}
		spec, _ := PlatformByName(name)
		e.powers[name] = spec.Power
		for _, stName := range space.DVFSStates {
			st, _ := power.DVFSStateByName(stName)
			if err := st.Validate(); err != nil {
				return nil, err
			}
			e.states[stName] = st
			e.twins[twinKey{name, stName}] = scaleCPU(base, 1/st.FreqScale)
		}
	}
	return e, nil
}

// scaleCPU returns the twin with the CPU station demand multiplied by
// factor (shallow copy; Stations is the only field rewritten).
func scaleCPU(t *twin.Twin, factor float64) *twin.Twin {
	if factor == 1 {
		return t
	}
	out := *t
	out.Stations = append([]twin.Station(nil), t.Stations...)
	for i, s := range out.Stations {
		if s.Subsystem == trace.CPU {
			out.Stations[i].Demand = s.Demand * factor
		}
	}
	return &out
}

// Space returns the evaluator's (defaulted) search space.
func (e *Evaluator) Space() Space { return e.space }

// Objective returns the evaluator's (defaulted) objective.
func (e *Evaluator) Objective() Objective { return e.obj }

// Unique returns how many distinct configurations have been evaluated.
func (e *Evaluator) Unique() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// evaluations returns every memoized evaluation in canonical config order.
func (e *Evaluator) evaluations() []Evaluation {
	e.mu.Lock()
	out := make([]Evaluation, 0, len(e.cache))
	for _, ev := range e.cache {
		out = append(out, ev)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Config.less(out[j].Config) })
	return out
}

// Eval evaluates one configuration (memoized). Errors wrap ErrBadConfig
// and mean the configuration is structurally invalid — outside the space
// or rejected at the twin boundary — never that it merely performs badly:
// saturation and missed targets are in-band (Stable/Feasible false).
func (e *Evaluator) Eval(c Config) (Evaluation, error) {
	e.mu.Lock()
	if ev, ok := e.cache[c]; ok {
		e.mu.Unlock()
		return ev, nil
	}
	e.mu.Unlock()
	if !e.space.contains(c) {
		return Evaluation{}, badConfig("config %+v outside the search space", c)
	}
	tw := e.twins[twinKey{c.Platform, c.DVFS}]
	ans, err := tw.WhatIf(twin.Query{Servers: c.Servers, Replicas: c.Replicas})
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{
		Config:                c,
		Stable:                ans.Stable,
		QuantileSeconds:       quantileOf(ans, e.obj.Quantile),
		MeanSeconds:           ans.MeanResponseSeconds,
		Bottleneck:            ans.Bottleneck,
		BottleneckUtilization: ans.BottleneckUtilization,
	}
	ev.Feasible = ev.Stable && ev.QuantileSeconds <= e.obj.TargetSeconds
	ev.WattsPerServer = e.watts(c, ans)
	ev.CostPerHour = float64(c.Servers) * (e.obj.ServerCost + e.obj.WattCost*ev.WattsPerServer)
	e.mu.Lock()
	e.cache[c] = ev
	e.mu.Unlock()
	return ev, nil
}

// EvalBatch evaluates the batch on up to workers goroutines via par.Do:
// results land by index, so the output is byte-identical for any worker
// count.
func (e *Evaluator) EvalBatch(cs []Config, workers int) ([]Evaluation, error) {
	out := make([]Evaluation, len(cs))
	err := par.Do(len(cs), workers, func(i int) error {
		ev, err := e.Eval(cs[i])
		if err != nil {
			return err
		}
		out[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func quantileOf(a twin.Answer, q float64) float64 {
	switch q {
	case 0.5:
		return a.P50Seconds
	case 0.99:
		return a.P99Seconds
	default:
		return a.P95Seconds
	}
}

// watts applies the linear power model to the twin's per-station
// utilizations: each subsystem draws idle power plus (active-idle) scaled
// by its utilization, and the DVFS power scale multiplies the whole CPU
// component. Utilizations clamp at 1 so an unstable evaluation prices out
// at peak rather than beyond it.
func (e *Evaluator) watts(c Config, ans twin.Answer) float64 {
	sp := e.powers[c.Platform]
	st := e.states[c.DVFS]
	var w float64
	for _, s := range ans.Stations {
		util := s.Utilization
		if util > 1 {
			util = 1
		}
		var comp power.Component
		var scale float64 = 1
		switch s.Name {
		case trace.CPU.String():
			comp, scale = sp.CPU, st.PowerScale
		case trace.Storage.String():
			comp = sp.Disk
		case trace.Memory.String():
			comp = sp.Memory
		default:
			comp = sp.Network
		}
		w += scale * (comp.Idle + (comp.Active-comp.Idle)*util)
	}
	return w
}
