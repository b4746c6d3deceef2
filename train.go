package dcmodel

import (
	"fmt"
	"io"
	"math/rand"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/trace"
)

// Approach names one of the paper's three modeling approaches. It selects
// the trainer behind Train and the decoder behind LoadModel.
type Approach int

const (
	// Kooza is the paper's combined approach: per-subsystem Markov models,
	// a network queueing model and a time-dependency queue.
	Kooza Approach = iota
	// InBreadth is the per-subsystem baseline: four independent feature
	// models with no cross-subsystem structure.
	InBreadth
	// InDepth is the request-flow baseline: a queueing model of request
	// classes and their phase paths.
	InDepth
)

// String returns the approach's canonical name as used in Table 1.
func (a Approach) String() string {
	switch a {
	case Kooza:
		return "KOOZA"
	case InBreadth:
		return "in-breadth"
	case InDepth:
		return "in-depth"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// ParseApproach maps an approach name (as printed by String, matched
// case-insensitively for ASCII letters) back to its value.
func ParseApproach(s string) (Approach, error) {
	switch lowerASCII(s) {
	case "kooza":
		return Kooza, nil
	case "in-breadth", "inbreadth":
		return InBreadth, nil
	case "in-depth", "indepth":
		return InDepth, nil
	default:
		return 0, fmt.Errorf("dcmodel: unknown approach %q (want kooza, in-breadth or in-depth)", s)
	}
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Model is a trained workload model, whatever the approach. Every model
// synthesizes traces, characterizes its own structure, reports its size
// and serializes itself; BuildTwin lowers it to its analytical twin.
type Model interface {
	// Approach identifies which modeling approach produced this model.
	Approach() Approach
	// Synthesize generates n synthetic requests using r.
	Synthesize(n int, r *rand.Rand) (*Trace, error)
	// SynthesizeBatch is the bulk-generation flavor of Synthesize: same
	// seed, byte-identical trace, but span storage is reserved a slab of
	// requests at a time, so large n amortizes the per-request arena
	// bookkeeping. The daemon and the sharded synthesizer ride this path.
	SynthesizeBatch(n int, r *rand.Rand) (*Trace, error)
	// Characterize renders the model's learned structure as text.
	Characterize() string
	// NumParams counts the model's free parameters (the Table 1
	// "complexity" axis).
	NumParams() int
	// Save serializes the model as JSON; LoadModel restores it.
	Save(w io.Writer) error
}

// trainSettings accumulates TrainOption effects. Shared knobs write into
// both per-approach option structs; the trainer picks the one it needs.
type trainSettings struct {
	kooza     KoozaOptions
	inbreadth InBreadthOptions
	obs       *Observer
}

// TrainOption customizes Train. The zero settings reproduce the paper's
// defaults for every approach.
type TrainOption func(*trainSettings)

// WithStorageRegions sets how many LBN regions the storage Markov models
// distinguish (Kooza and InBreadth; default 32).
func WithStorageRegions(n int) TrainOption {
	return func(s *trainSettings) {
		s.kooza.StorageRegions = n
		s.inbreadth.StorageRegions = n
	}
}

// WithCPUStates sets the CPU-utilization quantization level count (Kooza
// and InBreadth; default 8).
func WithCPUStates(n int) TrainOption {
	return func(s *trainSettings) {
		s.kooza.CPUStates = n
		s.inbreadth.CPUStates = n
	}
}

// WithSmoothing sets the Markov transition-count smoothing constant (Kooza
// and InBreadth; default 0.01).
func WithSmoothing(alpha float64) TrainOption {
	return func(s *trainSettings) {
		s.kooza.Smoothing = alpha
		s.inbreadth.Smoothing = alpha
	}
}

// WithDiskBlocks fixes the modeled disk capacity in blocks instead of
// inferring it from the trace (Kooza and InBreadth).
func WithDiskBlocks(n int64) TrainOption {
	return func(s *trainSettings) {
		s.kooza.DiskBlocks = n
		s.inbreadth.DiskBlocks = n
	}
}

// WithKoozaOptions replaces the full KOOZA option struct, for knobs that
// only KOOZA has (hierarchical storage, arrival states). It overrides any
// shared option that precedes it and is overridden by any that follows.
func WithKoozaOptions(o KoozaOptions) TrainOption {
	return func(s *trainSettings) { s.kooza = o }
}

// WithInBreadthOptions replaces the full in-breadth option struct.
func WithInBreadthOptions(o InBreadthOptions) TrainOption {
	return func(s *trainSettings) { s.inbreadth = o }
}

// WithObserver instruments the training run: one span tree (root "train:"
// plus a fit stage child) goes to the observer's TraceRecorder, and the
// fit's wall time and allocation land in the observer's registry as
// dcmodel_stage_seconds / dcmodel_stage_alloc_bytes. It replaces ad-hoc
// timing around Train calls with the same obs substrate the serving
// daemon uses; a nil observer observes nothing.
func WithObserver(o *Observer) TrainOption {
	return func(s *trainSettings) { s.obs = o }
}

// Train fits the selected approach to tr and returns it behind the common
// Model interface:
//
//	m, err := dcmodel.Train(tr, dcmodel.Kooza)
//	synth, err := m.Synthesize(4000, rand.New(rand.NewSource(2)))
func Train(tr *Trace, a Approach, opts ...TrainOption) (Model, error) {
	var s trainSettings
	for _, opt := range opts {
		opt(&s)
	}
	span := s.obs.StartSpan("train:" + a.String())
	stop := s.obs.Stage(span, "fit."+lowerASCII(a.String()))
	m, err := trainApproach(func() (*trace.Prepared, error) { return trace.Prepare(tr) }, a, s)
	stop()
	if err != nil {
		span.Annotate("error: %v", err)
	} else if tr != nil {
		span.Annotate("requests=%d params=%d", tr.Len(), m.NumParams())
	}
	span.Finish()
	return m, err
}

// trainApproach trains the selected approach on the prepared form of a
// trace. prepare is called at most once here; a caller that trains several
// approaches on one trace passes a function that prepares it once for all.
func trainApproach(prepare func() (*trace.Prepared, error), a Approach, s trainSettings) (Model, error) {
	if a != Kooza && a != InBreadth && a != InDepth {
		return nil, fmt.Errorf("dcmodel: unknown approach %d: %w", int(a), ErrBadConfig)
	}
	p, err := prepare()
	if err != nil {
		return nil, fmt.Errorf("dcmodel: %w", err)
	}
	switch a {
	case Kooza:
		m, err := kooza.TrainPrepared(p, s.kooza)
		if err != nil {
			return nil, err
		}
		return koozaTrained{m}, nil
	case InBreadth:
		m, err := inbreadth.TrainPrepared(p, s.inbreadth)
		if err != nil {
			return nil, err
		}
		return inBreadthTrained{m}, nil
	default:
		m, err := indepth.TrainPrepared(p)
		if err != nil {
			return nil, err
		}
		return inDepthTrained{m}, nil
	}
}

// LoadModel restores a model previously serialized with Model.Save (or the
// approach packages' own Save functions). The approach selects the decoder;
// loading a stream written by a different approach fails.
func LoadModel(r io.Reader, a Approach) (Model, error) {
	switch a {
	case Kooza:
		m, err := kooza.Load(r)
		if err != nil {
			return nil, err
		}
		return koozaTrained{m}, nil
	case InBreadth:
		m, err := inbreadth.Load(r)
		if err != nil {
			return nil, err
		}
		return inBreadthTrained{m}, nil
	case InDepth:
		m, err := indepth.Load(r)
		if err != nil {
			return nil, err
		}
		return inDepthTrained{m}, nil
	default:
		return nil, fmt.Errorf("dcmodel: unknown approach %d: %w", int(a), ErrBadConfig)
	}
}

// koozaTrained adapts *kooza.Model to the Model interface. Synthesize and
// NumParams are promoted from the embedded model.
type koozaTrained struct{ *kooza.Model }

func (koozaTrained) Approach() Approach       { return Kooza }
func (m koozaTrained) Characterize() string   { return m.Describe() }
func (m koozaTrained) Save(w io.Writer) error { return kooza.Save(w, m.Model) }

type inBreadthTrained struct{ *inbreadth.Model }

func (inBreadthTrained) Approach() Approach       { return InBreadth }
func (m inBreadthTrained) Characterize() string   { return m.Describe() }
func (m inBreadthTrained) Save(w io.Writer) error { return inbreadth.Save(w, m.Model) }

type inDepthTrained struct{ *indepth.Model }

func (inDepthTrained) Approach() Approach       { return InDepth }
func (m inDepthTrained) Characterize() string   { return m.Describe() }
func (m inDepthTrained) Save(w io.Writer) error { return indepth.Save(w, m.Model) }
