package inbreadth

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dcmodel/internal/errs"
	"dcmodel/internal/kooza"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Model persistence, following the kooza pattern: everything is plain data
// or an empirical distribution except the fitted interarrival Dist, which
// is stored as a (family, parameters) spec.

// modelJSON is the serialized model envelope.
type modelJSON struct {
	Version         int                         `json:"version"`
	Storage         *kooza.StorageModel         `json:"storage"`
	CPU             *kooza.CPUModel             `json:"cpu"`
	Memory          *kooza.MemoryModel          `json:"memory"`
	Interarrival    stats.DistSpec              `json:"interarrival"`
	NetBytes        *stats.Empirical            `json:"net_bytes"`
	CPUBytes        *stats.Empirical            `json:"cpu_bytes"`
	SpansPerRequest map[trace.Subsystem]float64 `json:"spans_per_request"`
	TrainedOn       int                         `json:"trained_on"`
	Opts            Options                     `json:"opts"`
}

// persistVersion guards against loading incompatible files.
const persistVersion = 1

// Save writes the model as JSON.
func Save(w io.Writer, m *Model) error {
	if m == nil || m.Storage == nil || m.Interarrival == nil {
		return fmt.Errorf("inbreadth: cannot save model: %w", errs.ErrModelNotTrained)
	}
	env := modelJSON{
		Version:         persistVersion,
		Storage:         m.Storage,
		CPU:             m.CPU,
		Memory:          m.Memory,
		Interarrival:    stats.SpecOf(m.Interarrival),
		NetBytes:        m.NetBytes,
		CPUBytes:        m.CPUBytes,
		SpansPerRequest: m.SpansPerRequest,
		TrainedOn:       m.TrainedOn,
		Opts:            m.opts,
	}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("inbreadth: encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save. Its Markov chains freeze as they
// decode, so synthesis from the loaded model is bit-identical to the fresh
// one.
func Load(r io.Reader) (*Model, error) {
	var env modelJSON
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("inbreadth: decode model: %w", err)
	}
	if env.Version != persistVersion {
		return nil, fmt.Errorf("inbreadth: model version %d, want %d", env.Version, persistVersion)
	}
	inter, err := stats.DistFromSpec(env.Interarrival.Name, env.Interarrival.Params)
	if err != nil {
		return nil, fmt.Errorf("inbreadth: interarrival spec: %w", err)
	}
	m := &Model{
		Subsystems:      kooza.Subsystems{Storage: env.Storage, CPU: env.CPU, Memory: env.Memory},
		Interarrival:    inter,
		NetBytes:        env.NetBytes,
		CPUBytes:        env.CPUBytes,
		SpansPerRequest: env.SpansPerRequest,
		TrainedOn:       env.TrainedOn,
		opts:            env.Opts,
	}
	if err := m.validateLoaded(); err != nil {
		return nil, err
	}
	return m, nil
}

// maxSpansPerRequest bounds a loaded model's mean span count per
// subsystem, which sizes every synthetic request.
const maxSpansPerRequest = 1 << 8

// validateLoaded checks the structural invariants synthesis needs; the
// chains checked their own shapes as they decoded.
func (m *Model) validateLoaded() error {
	if err := m.Subsystems.Check(); err != nil {
		return fmt.Errorf("inbreadth: loaded model: %w", err)
	}
	if m.NetBytes == nil || m.CPUBytes == nil || len(m.SpansPerRequest) == 0 {
		return fmt.Errorf("inbreadth: loaded model missing byte distributions or span counts")
	}
	for sub, v := range m.SpansPerRequest {
		if !(v >= 0 && v <= maxSpansPerRequest) {
			return fmt.Errorf("inbreadth: loaded model has %g %s spans per request", v, sub)
		}
	}
	return nil
}

// Describe renders the trained model's structure: four independent
// subsystem models and nothing else — no classes, no phase ordering.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "in-breadth model (trained on %d requests, %d parameters)\n", m.TrainedOn, m.NumParams())
	fmt.Fprintf(&b, "interarrival ~ %s\n", stats.DescribeDist(m.Interarrival))
	fmt.Fprintf(&b, "storage Markov model: %d LBN regions, seq=%.2f, read=%.2f, mean I/O %.0f B\n",
		m.Storage.Regions, m.Storage.SeqProb, m.Storage.ReadProb, m.Storage.Sizes.Mean())
	fmt.Fprintf(&b, "cpu Markov model: %d utilization levels; mean processed %.0f B\n",
		m.CPU.Chain.N, m.CPUBytes.Mean())
	fmt.Fprintf(&b, "memory Markov model: %d banks\n", m.Memory.Chain.N)
	fmt.Fprintf(&b, "network: mean transfer %.0f B\n", m.NetBytes.Mean())
	fmt.Fprintf(&b, "mean spans/request:")
	for _, sub := range trace.Subsystems() {
		fmt.Fprintf(&b, " %s=%.2f", sub, m.SpansPerRequest[sub])
	}
	b.WriteString("\n(no cross-subsystem structure: phase order is assumed, not learned)\n")
	return b.String()
}
