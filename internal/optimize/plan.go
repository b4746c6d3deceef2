package optimize

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"dcmodel/internal/errs"
	"dcmodel/internal/prand"
	"dcmodel/internal/sqs"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// Request is the provisioning request — the one options struct shared
// verbatim (same fields, same JSON tags) by the dcmodel.Provision facade,
// cmd/provision and POST /v1/provision. Zero fields take the documented
// defaults.
type Request struct {
	// Trace is the workload to provision for (offline callers; never on
	// the wire — the daemon provisions its ingested window, and
	// cmd/provision reads -in/-spec).
	Trace *trace.Trace `json:"-"`
	// Spec generates the workload from a workload spec (preset name or
	// file path) when Trace is nil. Offline only: the daemon rejects it.
	Spec string `json:"spec,omitempty"`
	// Model selects the modeling approach behind the twin: kooza
	// (default), in-breadth or in-depth. Offline only; the daemon's
	// top-level model field selects among its warm models instead.
	Model string `json:"model,omitempty"`
	// Objective is the latency SLO and cost weights (target required).
	Objective Objective `json:"objective"`
	// Space bounds the search (zero value: 1–64 big-core P0 servers,
	// unreplicated).
	Space Space `json:"space,omitempty"`
	// Seed drives the DES characterizer and the validation runs (default
	// 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds evaluation concurrency (0 = GOMAXPROCS). The Plan is
	// byte-identical for any value.
	Workers int `json:"workers,omitempty"`
	// ValidateTasks is the DES task count per validation run (default
	// 20000).
	ValidateTasks int `json:"validate_tasks,omitempty"`
	// ValidateSamples is the DES characterizer sample budget (default
	// 10000; consulted by callers that build the DES model from a trace).
	ValidateSamples int `json:"validate_samples,omitempty"`
	// MaxValidate caps how many Pareto-frontier configurations are
	// DES-validated, cheapest first (default 3).
	MaxValidate int `json:"max_validate,omitempty"`
}

// WithDefaults returns the request with zero fields defaulted — the same
// normalization Search applies, exported so the facade, CLI and daemon
// report identical effective requests.
func (r Request) WithDefaults() Request {
	r.Objective = r.Objective.withDefaults()
	r.Space = r.Space.withDefaults()
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.ValidateTasks <= 0 {
		r.ValidateTasks = 20000
	}
	if r.ValidateSamples <= 0 {
		r.ValidateSamples = 10000
	}
	if r.MaxValidate <= 0 {
		r.MaxValidate = 3
	}
	return r
}

// DESResult is one discrete-event validation run of a frontier
// configuration (the SQS farm simulation).
type DESResult struct {
	Servers int `json:"servers"`
	Tasks   int `json:"tasks"`
	// Utilization is the simulated per-server utilization.
	Utilization float64 `json:"utilization"`
	MeanSeconds float64 `json:"mean_seconds"`
	// QuantileSeconds is the simulated latency at the objective quantile.
	QuantileSeconds float64 `json:"quantile_seconds"`
	P95Seconds      float64 `json:"p95_seconds"`
	P99Seconds      float64 `json:"p99_seconds"`
	// ThroughputPerSec is the simulated completion rate.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Passed reports whether the run met the objective target.
	Passed bool `json:"passed"`
	// Error carries a run that could not complete (e.g. unstable under
	// the empirical service distribution), in-band.
	Error string `json:"error,omitempty"`
}

// Plan is the provisioning answer: the chosen configuration, its
// predicted and DES-validated performance, the cost, and the full search
// audit trail. Field order and JSON tags are a stable wire contract
// (served verbatim by /v1/provision). Infeasibility is reported in-band —
// Feasible false, Chosen the closest miss — alongside ErrNoFeasibleConfig
// from Search, mirroring the what-if convention that saturation is a
// result, not an error.
type Plan struct {
	// Seed echoes the request's seed, which drove the DES validation.
	Seed int64 `json:"seed"`
	// Objective and Space echo the (defaulted) inputs.
	Objective Objective `json:"objective"`
	Space     Space     `json:"space"`
	// Feasible reports whether Chosen meets the objective (twin-predicted
	// and, when a DES model was supplied, DES-validated).
	Feasible bool `json:"feasible"`
	// Chosen is the selected configuration (the closest miss when
	// infeasible).
	Chosen Config `json:"chosen"`
	// Predicted is the twin evaluation of Chosen.
	Predicted Evaluation `json:"predicted"`
	// Validated is the passing DES run of Chosen (nil when validation was
	// skipped or nothing passed).
	Validated *DESResult `json:"validated,omitempty"`
	// Validations lists every DES run attempted, frontier order.
	Validations []DESResult `json:"validations,omitempty"`
	// Frontier is the cost/latency Pareto frontier of the feasible set,
	// cheapest first.
	Frontier []Evaluation `json:"frontier,omitempty"`
	// Sweep is the per-server-count sweep at the chosen platform, DVFS
	// state and replication — the PR 9 provision table, folded into the
	// plan.
	Sweep []Evaluation `json:"sweep,omitempty"`
	// Trail is the search audit trail.
	Trail []Step `json:"trail"`
	// TwinEvals counts the distinct configurations the twin evaluated
	// during the search; DESRuns counts discrete-event validation runs.
	// Their ratio is the twin-first speedup the search rides on.
	TwinEvals int `json:"twin_evals"`
	DESRuns   int `json:"des_runs"`
}

// Input bundles the compiled models a search runs against. The caller
// (facade or daemon) owns compilation, because only it knows the trained
// model types.
type Input struct {
	// Twins maps each platform name of the space to the trained model's
	// analytical twin compiled on that platform's hardware.
	Twins map[string]*twin.Twin
	// DES is the empirical SQS farm model used to validate the Pareto
	// frontier; nil skips validation (the plan is then twin-only).
	DES *sqs.Model
}

// charStream is the SplitMix64 sub-stream of the DES characterizer's
// reservoir sampling (callers building the DES model from a trace).
const charStream = 0x6368 // "ch"

// NewDESModel characterizes a trace into the empirical SQS farm model the
// frontier is validated against, on the request's seed and sample budget.
func NewDESModel(tr *trace.Trace, req Request) (*sqs.Model, error) {
	req = req.WithDefaults()
	c, err := sqs.NewCharacterizer(req.ValidateSamples, prand.New(req.Seed, charStream))
	if err != nil {
		return nil, err
	}
	if err := c.ObserveTrace(tr); err != nil {
		return nil, err
	}
	return c.Model()
}

// Search runs the provisioning search and assembles the Plan. On an
// exhausted space it returns the best-effort Plan (audit trail included)
// together with an error wrapping errs.ErrNoFeasibleConfig; on structural
// problems it returns errors wrapping errs.ErrBadConfig. ctx is checked
// before each sweep of the descent and before each DES validation run; a
// cancelled search returns ctx.Err().
func Search(ctx context.Context, in Input, req Request) (Plan, error) {
	req = req.WithDefaults()
	ev, err := NewEvaluator(in.Twins, req.Objective, req.Space)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{
		Seed:      req.Seed,
		Objective: ev.Objective(),
		Space:     ev.Space(),
	}
	steps, best, err := coordinateDescent(ctx, ev, req.Workers)
	plan.Trail = steps
	if err != nil {
		return plan, err
	}
	plan.TwinEvals = ev.Unique()
	all := ev.evaluations()
	feasible := make([]Evaluation, 0, len(all))
	for _, e := range all {
		if e.Feasible {
			feasible = append(feasible, e)
		}
	}
	if len(feasible) == 0 {
		plan.Chosen = best.Config
		plan.Predicted = best
		plan.Sweep = sweep(ev, best.Config, req.Workers)
		return plan, fmt.Errorf("optimize: no configuration in the space meets %s <= %gs: %w",
			quantileName(plan.Objective.Quantile), plan.Objective.TargetSeconds, errs.ErrNoFeasibleConfig)
	}
	plan.Frontier = pareto(feasible)

	// DES validation of the frontier only, cheapest first. Each run's
	// rand stream is keyed by the configuration fingerprint, so the
	// verdicts do not depend on how many candidates were tried before.
	chosen := plan.Frontier[0]
	if in.DES != nil {
		validated := false
		for _, cand := range plan.Frontier {
			if len(plan.Validations) >= req.MaxValidate {
				break
			}
			if err := ctx.Err(); err != nil {
				plan.DESRuns = len(plan.Validations)
				return plan, err
			}
			res, err := validateDES(ctx, in.DES, ev.Objective(), cand.Config, req)
			if err != nil {
				plan.DESRuns = len(plan.Validations)
				return plan, err
			}
			plan.Validations = append(plan.Validations, res)
			if res.Passed {
				chosen = cand
				v := res
				plan.Validated = &v
				validated = true
				break
			}
		}
		plan.DESRuns = len(plan.Validations)
		if !validated {
			plan.Chosen = chosen.Config
			plan.Predicted = chosen
			plan.Sweep = sweep(ev, chosen.Config, req.Workers)
			return plan, fmt.Errorf("optimize: DES validation rejected all %d frontier candidates tried: %w",
				len(plan.Validations), errs.ErrNoFeasibleConfig)
		}
	}
	plan.Feasible = true
	plan.Chosen = chosen.Config
	plan.Predicted = chosen
	plan.Sweep = sweep(ev, chosen.Config, req.Workers)
	return plan, nil
}

// pareto filters the feasible set down to its cost/latency Pareto
// frontier and sorts it cheapest-first.
func pareto(feasible []Evaluation) []Evaluation {
	var front []Evaluation
	for _, e := range feasible {
		dominated := false
		for _, o := range feasible {
			if o.Config == e.Config {
				continue
			}
			if o.CostPerHour <= e.CostPerHour && o.QuantileSeconds <= e.QuantileSeconds &&
				(o.CostPerHour < e.CostPerHour || o.QuantileSeconds < e.QuantileSeconds) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	sort.Slice(front, func(i, j int) bool { return better(front[i], front[j]) })
	return front
}

// validateDES runs one discrete-event validation of a configuration's
// server count against the empirical farm model. The run seed derives
// from the configuration fingerprint, never from attempt order. A run that
// ctx cut off is no verdict: it returns ctx.Err().
func validateDES(ctx context.Context, m *sqs.Model, obj Objective, c Config, req Request) (DESResult, error) {
	r := rand.New(rand.NewSource(prand.Derive(req.Seed, fingerprint(c))))
	out := DESResult{Servers: c.Servers, Tasks: req.ValidateTasks}
	res, err := m.Evaluate(ctx, c.Servers, req.ValidateTasks, r)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return out, ctxErr
		}
		out.Error = err.Error()
		return out, nil
	}
	out.Utilization = res.Utilization
	out.MeanSeconds = res.MeanResponse
	out.P95Seconds = res.P95
	out.P99Seconds = res.P99
	out.ThroughputPerSec = res.Throughput
	switch obj.Quantile {
	case 0.5:
		out.QuantileSeconds = res.MeanResponse // DES reports no p50; mean is the closest stand-in
	case 0.99:
		out.QuantileSeconds = res.P99
	default:
		out.QuantileSeconds = res.P95
	}
	out.Passed = out.QuantileSeconds <= obj.TargetSeconds
	return out, nil
}

// fingerprint hashes a configuration into a SplitMix64 stream key (FNV-1a
// over the canonical field order).
func fingerprint(c Config) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
	}
	mix(fmt.Sprintf("%d", c.Servers))
	mix(c.Platform)
	mix(c.DVFS)
	mix(fmt.Sprintf("%d", c.Replicas))
	return h
}

// sweepCap bounds the sweep table length (it ends at the chosen count).
const sweepCap = 64

// sweep evaluates every server count up to the chosen configuration's —
// the PR 9 provision table — at the chosen platform, DVFS state and
// replication. All entries are memo hits or cheap twin calls; errors are
// impossible for in-space configs that already evaluated, so a defective
// entry is simply skipped.
func sweep(ev *Evaluator, chosen Config, workers int) []Evaluation {
	space := ev.Space()
	start := space.MinServers
	if chosen.Servers-start+1 > sweepCap {
		start = chosen.Servers - sweepCap + 1
	}
	var cands []Config
	for k := start; k <= chosen.Servers; k++ {
		c := chosen
		c.Servers = k
		cands = append(cands, c)
	}
	evs, err := ev.EvalBatch(cands, workers)
	if err != nil {
		return nil
	}
	return evs
}

func quantileName(q float64) string {
	switch q {
	case 0.5:
		return "p50"
	case 0.99:
		return "p99"
	default:
		return "p95"
	}
}
