// Package markov provides the Markov-model substrate used by KOOZA's
// storage, processor and memory models: discrete-time Markov chains trained
// from state sequences, hierarchical (two-level) chains implementing the
// paper's "hierarchical representation" refinement, and Gaussian-emission
// hidden Markov models (the ECHMM approach of Moro et al. for memory
// reference streams).
package markov

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dcmodel/internal/stats"
)

// ErrNoData is returned when training is attempted on empty input.
var ErrNoData = errors.New("markov: no training data")

// Chain is a discrete-time Markov chain over states 0..N-1.
//
// The paper prefers Markov models for the storage, processor and memory
// subsystems "because we want to capture the sequence of states and the
// probabilities of switching between them".
type Chain struct {
	// N is the number of states.
	N int
	// Trans is the row-stochastic transition matrix (N x N).
	Trans *stats.Matrix
	// Initial is the initial state distribution.
	Initial []float64
	// Visits[i] is the number of training observations of state i,
	// retained for model-complexity reporting.
	Visits []int64

	// rowAlias holds the frozen per-row alias tables of Trans and
	// initAlias the one for Initial, making Step and Start O(1) in N.
	// Every chain this package trains or decodes is frozen; a chain
	// assembled by hand falls back to a linear scan.
	rowAlias  stats.AliasMatrix
	initAlias stats.Alias
}

// freeze builds the per-row alias tables that make Step and Start O(1)
// draws, refusing rows that are no distribution. After freeze the chain
// must be treated as read-only.
func (c *Chain) freeze() error {
	rows, err := stats.NewAliasMatrix(c.Trans.Data, c.N, c.N)
	if err != nil {
		return err
	}
	initial, err := stats.NewAlias(c.Initial)
	if err != nil {
		return fmt.Errorf("initial distribution: %w", err)
	}
	c.rowAlias, c.initAlias = rows, initial
	return nil
}

// UnmarshalJSON decodes a chain encoding/json wrote and freezes it, so a
// loaded chain draws exactly as the trained one did. A chain whose
// matrices do not have N states, or whose rows are no distribution, is
// refused.
func (c *Chain) UnmarshalJSON(data []byte) error {
	type fields Chain // the exported fields, without this method
	var f fields
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	ch := (*Chain)(&f)
	n := ch.N
	if n < 1 || ch.Trans == nil || ch.Trans.Rows != n || ch.Trans.Cols != n ||
		len(ch.Trans.Data)/n != n || len(ch.Trans.Data)%n != 0 ||
		len(ch.Initial) != n || len(ch.Visits) != n {
		return fmt.Errorf("markov: chain matrices do not fit %d states", n)
	}
	if err := ch.freeze(); err != nil {
		return fmt.Errorf("markov: chain: %w", err)
	}
	*c = *ch
	return nil
}

// Train estimates a Chain with n states from one or more state sequences:
// an Accumulator that observes each sequence once. smoothing is an
// additive (Laplace) pseudo-count applied to every transition, which keeps
// the chain irreducible when some transitions are unobserved; 0 disables
// smoothing (rows with no observations fall back to uniform).
func Train(seqs [][]int, n int, smoothing float64) (*Chain, error) {
	a, err := NewAccumulator(n, smoothing)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		if err := a.Observe(seq); err != nil {
			return nil, err
		}
	}
	return a.Chain()
}

// Step draws the successor of state using r: O(1) via the frozen alias
// table, or a linear scan over the row for unfrozen chains.
func (c *Chain) Step(state int, r *rand.Rand) int {
	if c.rowAlias.Rows() == c.N {
		return c.rowAlias.Draw(state, r)
	}
	return sampleIndex(c.Trans.Row(state), r)
}

// StepN draws len(out) successive states starting after state, writing each
// visited state to out and returning the final one. It consumes exactly one
// variate per step in Step's order, so same seed gives a sequence
// byte-identical to len(out) scalar Step calls — but the frozen path runs
// the whole walk inside stats.AliasMatrix.WalkN with the table fields
// hoisted out of the loop.
func (c *Chain) StepN(state int, r *rand.Rand, out []int) int {
	if c.rowAlias.Rows() == c.N {
		return c.rowAlias.WalkN(state, r, out)
	}
	for i := range out {
		state = sampleIndex(c.Trans.Row(state), r)
		out[i] = state
	}
	return state
}

// Start draws an initial state using r.
func (c *Chain) Start(r *rand.Rand) int {
	if !c.initAlias.Empty() {
		return c.initAlias.Draw(r)
	}
	return sampleIndex(c.Initial, r)
}

// Simulate generates a state sequence of the given length starting from the
// initial distribution.
func (c *Chain) Simulate(length int, r *rand.Rand) []int {
	if length <= 0 {
		return nil
	}
	out := make([]int, length)
	out[0] = c.Start(r)
	for i := 1; i < length; i++ {
		out[i] = c.Step(out[i-1], r)
	}
	return out
}

// Stationary returns the stationary distribution of the chain by power
// iteration. It fails if the iteration does not converge (e.g. a periodic
// chain without smoothing).
func (c *Chain) Stationary() ([]float64, error) {
	pi := make([]float64, c.N)
	for i := range pi {
		pi[i] = 1 / float64(c.N)
	}
	next := make([]float64, c.N)
	for iter := 0; iter < 100000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < c.N; i++ {
			pii := pi[i]
			if pii == 0 {
				continue
			}
			row := c.Trans.Row(i)
			for j, p := range row {
				next[j] += pii * p
			}
		}
		var diff float64
		for j := range pi {
			diff += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if diff < 1e-12 {
			return pi, nil
		}
	}
	return nil, errors.New("markov: stationary distribution did not converge")
}

// LogLikelihood returns the log-likelihood of a state sequence under the
// chain (using the initial distribution for the first state). Impossible
// transitions yield -Inf.
func (c *Chain) LogLikelihood(seq []int) float64 {
	if len(seq) == 0 {
		return 0
	}
	ll := math.Log(c.Initial[seq[0]] + 0)
	for i := 1; i < len(seq); i++ {
		ll += math.Log(c.Trans.At(seq[i-1], seq[i]))
	}
	return ll
}

// NumParams returns the number of free parameters of the chain
// (N*(N-1) transition probabilities plus N-1 initial probabilities), the
// model-complexity measure used by the cross-examination scorecard.
func (c *Chain) NumParams() int { return c.N*(c.N-1) + (c.N - 1) }

// sampleIndex draws an index from the (normalized) weights.
func sampleIndex(weights []float64, r *rand.Rand) int {
	u := r.Float64()
	var cum float64
	for i, w := range weights {
		cum += w
		if u <= cum {
			return i
		}
	}
	return len(weights) - 1
}
