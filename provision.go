package dcmodel

import (
	"context"
	"fmt"

	"dcmodel/internal/optimize"
	"dcmodel/internal/spec"
	"dcmodel/internal/twin"
)

// Provisioning-optimizer re-exports. The same Request/Plan types — same
// fields, same JSON tags — are the wire contract of the dcmodel.Provision
// facade, the provision CLI and the daemon's POST /v1/provision, so a plan
// serialized by any of the three deserializes in the others.
type (
	// ProvisionRequest describes one provisioning search: the workload,
	// the latency/cost objective and the configuration space to search.
	// Zero fields take the documented defaults.
	ProvisionRequest = optimize.Request
	// Plan is the provisioning answer: chosen configuration, predicted
	// and DES-validated performance, cost, and the full search audit
	// trail. Infeasibility is in-band (Feasible false) alongside
	// ErrNoFeasibleConfig, mirroring the what-if saturation convention.
	Plan = optimize.Plan
	// ProvisionConfig is one point of the configuration space: servers,
	// platform, DVFS operating point, replication factor.
	ProvisionConfig = optimize.Config
	// ProvisionSpace bounds the configuration search.
	ProvisionSpace = optimize.Space
	// ProvisionObjective is the latency SLO plus the cost weights the
	// search minimizes over feasible configurations.
	ProvisionObjective = optimize.Objective
	// ProvisionEvaluation is one closed-form (twin) assessment of a
	// configuration.
	ProvisionEvaluation = optimize.Evaluation
	// ProvisionStep is one entry of a Plan's search audit trail.
	ProvisionStep = optimize.Step
	// ProvisionDESResult is one discrete-event validation run of a
	// frontier configuration.
	ProvisionDESResult = optimize.DESResult
)

// Provision runs the closed-loop provisioning search: train a workload
// model on the request's trace (or spec-generated workload), compile its
// analytical twin on every candidate platform, search the configuration
// space twin-first for the cheapest configuration meeting the objective,
// and validate the Pareto frontier with discrete-event simulation of the
// SQS farm.
//
// The returned Plan is byte-identical for any Workers value. When no
// configuration in the space meets the objective, Provision returns the
// best-effort Plan (audit trail included, Feasible false) together with an
// error wrapping ErrNoFeasibleConfig; structural problems wrap
// ErrBadConfig.
//
//	plan, err := dcmodel.Provision(ctx, dcmodel.ProvisionRequest{
//		Spec:      "mapreduce",
//		Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.05},
//	})
func Provision(ctx context.Context, req ProvisionRequest) (Plan, error) {
	// Remember whether the caller set a seed before defaulting: an
	// explicit seed overrides a spec's own, an unset one does not —
	// matching the provision CLI's -seed semantics.
	explicitSeed := req.Seed != 0
	req = req.WithDefaults()
	approach, err := ParseApproach(modelOrDefault(req.Model))
	if err != nil {
		return Plan{}, err
	}
	tr := req.Trace
	if tr == nil {
		if req.Spec == "" {
			return Plan{}, fmt.Errorf("dcmodel: provision needs a Trace or a Spec: %w", ErrBadConfig)
		}
		tr, err = provisionTraceFromSpec(req, explicitSeed)
		if err != nil {
			return Plan{}, err
		}
	}
	m, err := Train(tr, approach)
	if err != nil {
		return Plan{}, err
	}
	twins := make(map[string]*twin.Twin, len(req.Space.Platforms))
	for _, name := range req.Space.Platforms {
		pspec, ok := optimize.PlatformByName(name)
		if !ok {
			return Plan{}, fmt.Errorf("dcmodel: unknown platform %q: %w", name, ErrBadConfig)
		}
		tw, err := BuildTwin(m, Platform{NewServer: pspec.NewServer})
		if err != nil {
			return Plan{}, err
		}
		twins[name] = tw
	}
	des, err := optimize.NewDESModel(tr, req)
	if err != nil {
		return Plan{}, err
	}
	return optimize.Search(ctx, optimize.Input{Twins: twins, DES: des}, req)
}

func modelOrDefault(name string) string {
	if name == "" {
		return "kooza"
	}
	return name
}

// provisionTraceFromSpec generates the request's workload from its spec
// reference. An explicitly-set request seed overrides the spec's own.
func provisionTraceFromSpec(req ProvisionRequest, explicitSeed bool) (*Trace, error) {
	s, err := spec.Resolve(req.Spec)
	if err != nil {
		return nil, err
	}
	var opts spec.Options
	if explicitSeed {
		opts.Seed = req.Seed
	}
	c, err := s.Compile(opts)
	if err != nil {
		return nil, err
	}
	return c.Generate(req.Workers)
}
