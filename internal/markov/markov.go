// Package markov provides the Markov-model substrate used by KOOZA's
// storage, processor and memory models: discrete-time Markov chains trained
// from state sequences, hierarchical (two-level) chains implementing the
// paper's "hierarchical representation" refinement, and Gaussian-emission
// hidden Markov models (the ECHMM approach of Moro et al. for memory
// reference streams).
package markov

import (
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
	// They are built by Freeze (called from Train); chains deserialized
	// or assembled by hand fall back to a linear scan until frozen.
	rowAlias  stats.AliasMatrix
	initAlias stats.Alias
}

// Freeze builds the per-row alias tables that make Step and Start O(1)
// draws. Train calls it automatically; it must be re-invoked on chains
// reconstructed from serialized form (the tables are derived state and are
// not persisted). After Freeze the chain must be treated as read-only.
func (c *Chain) Freeze() {
	c.rowAlias = stats.MustAliasMatrix(c.Trans.Data, c.N, c.N)
	c.initAlias = stats.MustAlias(c.Initial)
}

// Train estimates a Chain with n states from one or more state sequences.
// smoothing is an additive (Laplace) pseudo-count applied to every
// transition, which keeps the chain irreducible when some transitions are
// unobserved; 0 disables smoothing (rows with no observations fall back to
// uniform).
func Train(seqs [][]int, n int, smoothing float64) (*Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: need at least one state, got %d", n)
	}
	if smoothing < 0 {
		return nil, fmt.Errorf("markov: smoothing must be non-negative, got %g", smoothing)
	}
	var total int
	for _, s := range seqs {
		total += len(s)
	}
	if total == 0 {
		return nil, ErrNoData
	}
	counts := stats.NewMatrix(n, n)
	initial := make([]float64, n)
	visits := make([]int64, n)
	for _, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		for i, s := range seq {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("markov: state %d out of range 0..%d", s, n-1)
			}
			visits[s]++
			if i == 0 {
				initial[s]++
			} else {
				counts.Data[seq[i-1]*n+s]++
			}
		}
	}
	c := &Chain{N: n, Trans: stats.NewMatrix(n, n), Initial: initial, Visits: visits}
	var initTotal float64
	for _, v := range initial {
		initTotal += v
	}
	// Smoothing also applies to the initial distribution, so a smoothed
	// chain assigns positive likelihood to any start state.
	initDenom := initTotal + smoothing*float64(n)
	for i := range initial {
		initial[i] = (initial[i] + smoothing) / initDenom
	}
	for i := 0; i < n; i++ {
		row := counts.Row(i)
		var rowSum float64
		for _, v := range row {
			rowSum += v
		}
		out := c.Trans.Row(i)
		denom := rowSum + smoothing*float64(n)
		if denom == 0 {
			// Unvisited state: uniform fallback.
			for j := range out {
				out[j] = 1 / float64(n)
			}
			continue
		}
		for j := range out {
			out[j] = (row[j] + smoothing) / denom
		}
	}
	c.Freeze()
	return c, nil
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
