package indepth

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dcmodel/internal/errs"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Model persistence, following the kooza pattern: the per-class flow
// models are plain data; the fitted interarrival Dist is stored as a
// (family, parameters) spec.

// modelJSON is the serialized model envelope.
type modelJSON struct {
	Version      int            `json:"version"`
	Interarrival stats.DistSpec `json:"interarrival"`
	FitKS        float64        `json:"fit_ks"`
	Classes      []*ClassModel  `json:"classes"`
	TrainedOn    int            `json:"trained_on"`
}

// persistVersion guards against loading incompatible files.
const persistVersion = 1

// Save writes the model as JSON.
func Save(w io.Writer, m *Model) error {
	if m == nil || m.Interarrival == nil || len(m.Classes) == 0 {
		return fmt.Errorf("indepth: cannot save model: %w", errs.ErrModelNotTrained)
	}
	env := modelJSON{
		Version:      persistVersion,
		Interarrival: stats.SpecOf(m.Interarrival),
		FitKS:        m.FitKS,
		Classes:      m.Classes,
		TrainedOn:    m.TrainedOn,
	}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("indepth: encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var env modelJSON
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("indepth: decode model: %w", err)
	}
	if env.Version != persistVersion {
		return nil, fmt.Errorf("indepth: model version %d, want %d", env.Version, persistVersion)
	}
	inter, err := stats.DistFromSpec(env.Interarrival.Name, env.Interarrival.Params)
	if err != nil {
		return nil, fmt.Errorf("indepth: interarrival spec: %w", err)
	}
	m := &Model{
		Interarrival: inter,
		FitKS:        env.FitKS,
		Classes:      env.Classes,
		TrainedOn:    env.TrainedOn,
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	return m, nil
}

// validateLoaded checks the structural invariants synthesis needs.
func (m *Model) validateLoaded() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("indepth: loaded model has no classes")
	}
	weights := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		if c == nil {
			return fmt.Errorf("indepth: loaded model has a nil class")
		}
		weights[i] = c.Weight
		for _, p := range c.Phases {
			if p < trace.Network || p > trace.Storage {
				return fmt.Errorf("indepth: class %q has a phase of subsystem %d", c.Name, p)
			}
		}
		if len(c.Phases) != len(c.Service) {
			return fmt.Errorf("indepth: class %q has %d phases but %d service distributions",
				c.Name, len(c.Phases), len(c.Service))
		}
		for i, svc := range c.Service {
			if svc == nil {
				return fmt.Errorf("indepth: class %q phase %d has no service distribution", c.Name, i)
			}
		}
	}
	if _, err := stats.NewAlias(weights); err != nil {
		return fmt.Errorf("indepth: class weights: %w", err)
	}
	return nil
}

// Describe renders the trained model's structure: the fitted arrival
// process and each class's phase path with per-phase mean service times.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in-depth model (trained on %d requests, %d parameters)\n", m.TrainedOn, m.NumParams())
	fmt.Fprintf(&b, "arrival process ~ %s (KS=%.4f)\n", stats.DescribeDist(m.Interarrival), m.FitKS)
	for _, c := range m.Classes {
		phases := make([]string, len(c.Phases))
		for i, p := range c.Phases {
			phases[i] = fmt.Sprintf("%s(%.2gms)", p, 1e3*c.Service[i].Mean())
		}
		fmt.Fprintf(&b, "class %q (weight %.3f): %s\n", c.Name, c.Weight, strings.Join(phases, " -> "))
	}
	b.WriteString("(request-flow model: captures time dependencies, not per-subsystem features)\n")
	return b.String()
}
