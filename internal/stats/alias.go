package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Alias is a Walker/Vose alias table: a categorical sampler over weights
// w_0..w_{n-1} whose draws are O(1) and allocation-free regardless of n.
//
// The table is built once (at model-training or construction time) and is
// read-only afterwards, so one frozen Alias may be shared by any number of
// concurrent samplers as long as each brings its own *rand.Rand — the same
// contract every trained model in this repository follows.
//
// A draw consumes exactly one uniform variate — even from a one-category
// table — like the linear-scan and binary-search samplers it replaces: the
// variate's integer part (after scaling by n) picks a slot and its
// fractional part plays the biased coin against the slot's acceptance
// probability. Same seed therefore implies the same number of RNG calls
// per draw at any table size, which keeps every model's draw sequence
// aligned with its pre-alias realization.
type Alias struct {
	// prob[i] is the probability of accepting slot i's own index; on
	// rejection the draw returns alias[i].
	prob  []float64
	alias []int32
}

// NewAlias builds the alias table for the given weights using Vose's O(n)
// construction. Weights must be non-negative and finite with a positive
// sum; individual zero weights are fine (their index is never drawn). The
// construction is deterministic: equal weight slices yield identical
// tables.
func NewAlias(weights []float64) (Alias, error) {
	n := len(weights)
	if n == 0 {
		return Alias{}, fmt.Errorf("stats: alias table needs at least one weight")
	}
	if n > math.MaxInt32 {
		return Alias{}, fmt.Errorf("stats: alias table over %d slots not supported", math.MaxInt32)
	}
	a := Alias{prob: make([]float64, n), alias: make([]int32, n)}
	scratch := aliasScratch{
		scaled: make([]float64, n),
		small:  make([]int32, 0, n),
		large:  make([]int32, 0, n),
	}
	if err := buildAliasInto(a.prob, a.alias, weights, &scratch); err != nil {
		return Alias{}, err
	}
	return a, nil
}

// aliasScratch holds the reusable worklists of the Vose construction, so
// building many equal-width tables (an AliasMatrix) allocates them once.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
}

// buildAliasInto runs Vose's construction for weights into prob and alias
// (all length len(weights)). The construction is deterministic: the
// worklists are index-ordered stacks.
func buildAliasInto(prob []float64, alias []int32, weights []float64, sc *aliasScratch) error {
	n := len(weights)
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("stats: alias weight %d is %g, want finite and non-negative", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("stats: alias weights sum to %g, want positive", sum)
	}
	// Scale weights to mean 1 and split into deficit/surplus worklists.
	scaled := sc.scaled[:n]
	scale := float64(n) / sum
	for i, w := range weights {
		scaled[i] = w * scale
	}
	small := sc.small[:0]
	large := sc.large[:0]
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers on either list are exactly 1 up to rounding error: accept
	// their own index unconditionally.
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	return nil
}

// MustAlias is NewAlias for weights known valid by construction (e.g. the
// normalized rows of a trained transition matrix); it panics on error.
func MustAlias(weights []float64) Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

// N returns the number of categories (0 for an unbuilt zero table).
func (a *Alias) N() int { return len(a.prob) }

// Empty reports whether the table has not been built.
func (a *Alias) Empty() bool { return len(a.prob) == 0 }

// Sample maps one uniform variate u in [0, 1) to a category: O(1), no
// allocation, pure (the same u always yields the same category).
func (a *Alias) Sample(u float64) int {
	prob := a.prob
	x := u * float64(len(prob))
	i := int(x)
	if uint(i) >= uint(len(prob)) { // u == 1 or rounding at the boundary
		i = len(prob) - 1
	}
	if x-float64(i) < prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Draw samples a category using one variate from r.
func (a *Alias) Draw(r *rand.Rand) int {
	return a.Sample(r.Float64())
}

// AliasMatrix is a bank of equal-width alias tables packed into two flat
// arrays — the frozen form of a row-stochastic transition matrix. Row draws
// index straight into the packed arrays, avoiding the per-row slice-header
// hop a []Alias would pay on every Markov step, and keeping neighboring
// rows on shared cache lines.
type AliasMatrix struct {
	rows, cols int
	prob       []float64
	alias      []int32
}

// NewAliasMatrix builds one alias table per row of the row-major rows×cols
// weights matrix (data exactly rows*cols long, as in Matrix.Data).
func NewAliasMatrix(data []float64, rows, cols int) (AliasMatrix, error) {
	if rows < 0 || cols < 1 || len(data) != rows*cols {
		return AliasMatrix{}, fmt.Errorf("stats: alias matrix wants %d x %d weights, got %d", rows, cols, len(data))
	}
	if cols > math.MaxInt32 {
		return AliasMatrix{}, fmt.Errorf("stats: alias table over %d slots not supported", math.MaxInt32)
	}
	m := AliasMatrix{
		rows:  rows,
		cols:  cols,
		prob:  make([]float64, rows*cols),
		alias: make([]int32, rows*cols),
	}
	scratch := aliasScratch{
		scaled: make([]float64, cols),
		small:  make([]int32, 0, cols),
		large:  make([]int32, 0, cols),
	}
	for i := 0; i < rows; i++ {
		lo, hi := i*cols, (i+1)*cols
		if err := buildAliasInto(m.prob[lo:hi], m.alias[lo:hi], data[lo:hi], &scratch); err != nil {
			return AliasMatrix{}, fmt.Errorf("stats: alias matrix row %d: %w", i, err)
		}
	}
	return m, nil
}

// MustAliasMatrix is NewAliasMatrix for weights known valid by construction
// (e.g. a trained transition matrix); it panics on error.
func MustAliasMatrix(data []float64, rows, cols int) AliasMatrix {
	m, err := NewAliasMatrix(data, rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of tables in the bank (0 when unbuilt).
func (m *AliasMatrix) Rows() int { return m.rows }

// Sample maps one uniform variate to a category of the given row.
func (m *AliasMatrix) Sample(row int, u float64) int {
	cols := m.cols
	base := row * cols
	x := u * float64(cols)
	i := int(x)
	if uint(i) >= uint(cols) { // u == 1 or rounding at the boundary
		i = cols - 1
	}
	if x-float64(i) < m.prob[base+i] {
		return i
	}
	return int(m.alias[base+i])
}

// Draw samples a category of the given row using one variate from r.
func (m *AliasMatrix) Draw(row int, r *rand.Rand) int {
	return m.Sample(row, r.Float64())
}

// WalkN chains len(out) row draws — each draw's category selects the next
// row — writing every visited state to out and returning the final state.
// It consumes one variate per step in the same order as the equivalent
// Draw(state, r) loop, so a frozen Markov chain batched through WalkN stays
// byte-identical to its scalar realization. The matrix must be square
// (rows == cols), as every frozen transition matrix is.
func (m *AliasMatrix) WalkN(state int, r *rand.Rand, out []int) int {
	cols := m.cols
	prob, alias := m.prob, m.alias
	n := float64(cols)
	for k := range out {
		base := state * cols
		x := r.Float64() * n
		i := int(x)
		if uint(i) >= uint(cols) {
			i = cols - 1
		}
		if x-float64(i) < prob[base+i] {
			state = i
		} else {
			state = int(alias[base+i])
		}
		out[k] = state
	}
	return state
}
