package kooza

import (
	"encoding/json"
	"fmt"
	"io"

	"dcmodel/internal/errs"
	"dcmodel/internal/markov"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Model persistence: a trained KOOZA model serializes to JSON so it can be
// trained once and reused across studies (train on the production system,
// synthesize in the lab). Everything in the model is either plain data or
// an empirical distribution (serialized as its sample); the one interface
// value — the fitted interarrival distribution — is stored as a
// (family, parameters) spec.

// networkJSON mirrors NetworkModel with the interface field replaced.
type networkJSON struct {
	Interarrival stats.DistSpec     `json:"interarrival"`
	FitKS        float64            `json:"fit_ks"`
	Rate         float64            `json:"rate"`
	GapChain     *markov.Chain      `json:"gap_chain,omitempty"`
	GapStates    []*stats.Empirical `json:"gap_states,omitempty"`
}

// modelJSON is the serialized model envelope.
type modelJSON struct {
	Version   int           `json:"version"`
	Classes   []*ClassModel `json:"classes"`
	Network   networkJSON   `json:"network"`
	Opts      Options       `json:"opts"`
	TrainedOn int           `json:"trained_on"`
}

// persistVersion guards against loading incompatible files.
const persistVersion = 1

// Save writes the model as JSON.
func Save(w io.Writer, m *Model) error {
	if m == nil || m.Network == nil {
		return fmt.Errorf("kooza: cannot save model: %w", errs.ErrModelNotTrained)
	}
	env := modelJSON{
		Version: persistVersion,
		Classes: m.Classes,
		Network: networkJSON{
			Interarrival: stats.SpecOf(m.Network.Interarrival),
			FitKS:        m.Network.FitKS,
			Rate:         m.Network.Rate,
			GapChain:     m.Network.GapChain,
			GapStates:    m.Network.GapStates,
		},
		Opts:      m.Opts,
		TrainedOn: m.TrainedOn,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("kooza: encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var env modelJSON
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("kooza: decode model: %w", err)
	}
	if env.Version != persistVersion {
		return nil, fmt.Errorf("kooza: model version %d, want %d", env.Version, persistVersion)
	}
	inter, err := stats.DistFromSpec(env.Network.Interarrival.Name, env.Network.Interarrival.Params)
	if err != nil {
		return nil, fmt.Errorf("kooza: interarrival spec: %w", err)
	}
	n := env.Network
	m := &Model{
		Classes:   env.Classes,
		Network:   &NetworkModel{Interarrival: inter, FitKS: n.FitKS, Rate: n.Rate, GapChain: n.GapChain, GapStates: n.GapStates},
		Opts:      env.Opts,
		TrainedOn: env.TrainedOn,
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	return m, nil
}

// validateLoaded checks the structural invariants a loaded model needs for
// synthesis to be safe; its chains checked their own shapes as they
// decoded.
func (m *Model) validateLoaded() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("kooza: loaded model has no classes")
	}
	weights := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		if c == nil {
			return fmt.Errorf("kooza: loaded model has a nil class")
		}
		weights[i] = c.Weight
		if err := c.Subsystems.Check(); err != nil {
			return fmt.Errorf("kooza: class %q: %w", c.Name, err)
		}
		if len(c.Queues) == 0 || c.NetIn == nil || c.NetOut == nil {
			return fmt.Errorf("kooza: class %q has no time-dependency queue or network sizes", c.Name)
		}
		paths := [][]trace.Subsystem{c.Phases}
		queueWeights := make([]float64, len(c.Queues))
		for i, q := range c.Queues {
			queueWeights[i] = q.Weight
			paths = append(paths, q.Phases)
		}
		for _, path := range paths {
			for _, p := range path {
				if p < trace.Network || p > trace.Storage {
					return fmt.Errorf("kooza: class %q has a phase of subsystem %d", c.Name, p)
				}
			}
		}
		if _, err := stats.NewAlias(queueWeights); err != nil {
			return fmt.Errorf("kooza: class %q queue weights: %w", c.Name, err)
		}
		servers := make([]float64, 0, len(c.ServerWeights))
		for _, w := range c.ServerWeights {
			servers = append(servers, w)
		}
		if _, err := stats.NewAlias(servers); len(servers) > 0 && err != nil {
			return fmt.Errorf("kooza: class %q server weights: %w", c.Name, err)
		}
	}
	if _, err := stats.NewAlias(weights); err != nil {
		return fmt.Errorf("kooza: class weights: %w", err)
	}
	if gc := m.Network.GapChain; gc != nil && len(m.Network.GapStates) != gc.N {
		return fmt.Errorf("kooza: gap chain has %d states but %d gap distributions", gc.N, len(m.Network.GapStates))
	}
	for _, g := range m.Network.GapStates {
		if g == nil {
			return fmt.Errorf("kooza: gap chain state has no gap distribution")
		}
	}
	return nil
}
