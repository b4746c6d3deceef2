package workload

import (
	"fmt"
	"math/rand"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// ClassSpec describes one request class of a workload mix.
type ClassSpec struct {
	// Name labels the class in traces (e.g. "read64K").
	Name string
	// Weight is the class's share of the request stream.
	Weight float64
	// Op is the storage operation the class performs.
	Op trace.Op
	// Size is the request-size distribution in bytes.
	Size stats.Dist
	// SequentialProb is the probability an I/O continues sequentially from
	// the class's previous I/O instead of seeking to a random location —
	// the spatial-locality knob.
	SequentialProb float64
}

// Mix is a weighted set of request classes.
type Mix struct {
	Classes []ClassSpec

	cum   []float64
	alias stats.Alias
}

// NewMix validates the classes and returns a Mix.
func NewMix(classes []ClassSpec) (*Mix, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: mix needs at least one class")
	}
	var sum float64
	cum := make([]float64, len(classes))
	for i, c := range classes {
		if c.Weight < 0 {
			return nil, fmt.Errorf("workload: class %q has negative weight", c.Name)
		}
		if c.Size == nil {
			return nil, fmt.Errorf("workload: class %q needs a size distribution", c.Name)
		}
		if c.Op != trace.OpRead && c.Op != trace.OpWrite {
			return nil, fmt.Errorf("workload: class %q needs a read or write op", c.Name)
		}
		if c.SequentialProb < 0 || c.SequentialProb > 1 {
			return nil, fmt.Errorf("workload: class %q sequential probability %g outside [0,1]", c.Name, c.SequentialProb)
		}
		sum += c.Weight
		cum[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: mix weights must sum to a positive value")
	}
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = c.Weight
	}
	return &Mix{Classes: classes, cum: cum, alias: stats.MustAlias(weights)}, nil
}

// Pick draws a class index according to the weights: O(1) via the alias
// table frozen by NewMix, with a linear scan for hand-assembled mixes.
func (m *Mix) Pick(r *rand.Rand) int {
	if !m.alias.Empty() {
		return m.alias.Draw(r)
	}
	u := r.Float64() * m.cum[len(m.cum)-1]
	for i, c := range m.cum {
		if u <= c {
			return i
		}
	}
	return len(m.cum) - 1
}

// Table2Mix returns the two request classes of the paper's Table 2
// validation: a 64 KB read and a 4 MB write, in equal proportion.
func Table2Mix() *Mix {
	m, err := NewMix([]ClassSpec{
		{
			Name:           "read64K",
			Weight:         1,
			Op:             trace.OpRead,
			Size:           stats.Deterministic{Value: 64 << 10},
			SequentialProb: 0.05,
		},
		{
			Name:           "write4M",
			Weight:         1,
			Op:             trace.OpWrite,
			Size:           stats.Deterministic{Value: 4 << 20},
			SequentialProb: 0.7,
		},
	})
	if err != nil {
		// Static configuration; unreachable by construction.
		panic(err)
	}
	return m
}

// OLTPMix returns an OLTP-like I/O mix in the style of production database
// traces (Kavalanekar et al.): small random page reads and writes at a
// 2:1 read:write ratio with log-file appends.
func OLTPMix() *Mix {
	m, err := NewMix([]ClassSpec{
		{
			Name:           "pageRead",
			Weight:         0.6,
			Op:             trace.OpRead,
			Size:           stats.Deterministic{Value: 8 << 10},
			SequentialProb: 0.02,
		},
		{
			Name:           "pageWrite",
			Weight:         0.3,
			Op:             trace.OpWrite,
			Size:           stats.Deterministic{Value: 8 << 10},
			SequentialProb: 0.02,
		},
		{
			Name:           "logAppend",
			Weight:         0.1,
			Op:             trace.OpWrite,
			Size:           stats.LogNormal{Mu: 10.5, Sigma: 0.5}, // ~36 KB median
			SequentialProb: 0.95,
		},
	})
	if err != nil {
		panic(err)
	}
	return m
}

// WebMix returns a heavy-tailed mixed read/write workload: lognormal-body
// reads and larger writes, the kind of object mix web-serving traces show.
func WebMix() *Mix {
	m, err := NewMix([]ClassSpec{
		{
			Name:           "get",
			Weight:         0.8,
			Op:             trace.OpRead,
			Size:           stats.LogNormal{Mu: 9.5, Sigma: 1.2}, // ~13 KB median
			SequentialProb: 0.2,
		},
		{
			Name:           "put",
			Weight:         0.2,
			Op:             trace.OpWrite,
			Size:           stats.LogNormal{Mu: 11, Sigma: 1.0}, // ~60 KB median
			SequentialProb: 0.6,
		},
	})
	if err != nil {
		panic(err)
	}
	return m
}
