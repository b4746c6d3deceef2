package markov

import (
	"fmt"

	"dcmodel/internal/stats"
)

// Accumulator gathers Markov transition counts incrementally, one state
// sequence at a time, so a long-running process can keep a model's
// sufficient statistics warm without retaining the raw observations. It is
// the one chain estimator — Train is an Accumulator fed every sequence at
// once: Chain() normalizes the accumulated counts into a frozen Chain at
// any point, and Drift compares the counts against a previously served
// chain to detect distribution shift.
//
// Concurrency contract: an Accumulator is not safe for concurrent use —
// Observe, Reset, Merge, Chain and MarshalBinary on one accumulator must
// be serialized by the caller (the serving daemon guards its drift
// accumulator with the ingest lock; the cluster worker guards its shard
// with the shard lock). Independent accumulators carry no shared state,
// so feeding K accumulators from K goroutines is safe and is the
// intended sharded-ingest pattern: Merge then folds them into one exact
// global count set (see Merge for the exactness contract, pinned by the
// -race stress test in merge_test.go).
type Accumulator struct {
	n         int
	smoothing float64
	counts    []float64 // n*n transition counts, row-major
	initial   []float64
	visits    []int64
	trans     int64
	seqs      int64
}

// NewAccumulator returns an empty accumulator over n states with the given
// Laplace smoothing (applied when the counts are normalized into a Chain).
func NewAccumulator(n int, smoothing float64) (*Accumulator, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: need at least one state, got %d", n)
	}
	if smoothing < 0 {
		return nil, fmt.Errorf("markov: smoothing must be non-negative, got %g", smoothing)
	}
	return &Accumulator{
		n:         n,
		smoothing: smoothing,
		counts:    make([]float64, n*n),
		initial:   make([]float64, n),
		visits:    make([]int64, n),
	}, nil
}

// N returns the state count.
func (a *Accumulator) N() int { return a.n }

// Observe folds one state sequence into the counts. An empty sequence is a
// no-op; out-of-range states are rejected without mutating the counts.
func (a *Accumulator) Observe(seq []int) error {
	for _, s := range seq {
		if s < 0 || s >= a.n {
			return fmt.Errorf("markov: state %d out of range 0..%d", s, a.n-1)
		}
	}
	for i, s := range seq {
		a.visits[s]++
		if i == 0 {
			a.initial[s]++
		} else {
			a.counts[seq[i-1]*a.n+s]++
			a.trans++
		}
	}
	if len(seq) > 0 {
		a.seqs++
	}
	return nil
}

// Transitions returns the number of transitions observed since the last
// Reset — the sample size a drift decision is based on.
func (a *Accumulator) Transitions() int64 { return a.trans }

// Sequences returns the number of non-empty sequences observed.
func (a *Accumulator) Sequences() int64 { return a.seqs }

// Reset zeroes the counts, starting a fresh observation window.
func (a *Accumulator) Reset() {
	clear(a.counts)
	clear(a.initial)
	clear(a.visits)
	a.trans, a.seqs = 0, 0
}

// Chain normalizes the accumulated counts into a frozen Chain: this is the
// one estimator, which Train runs over its sequences. Smoothing applies to
// the initial distribution and every row; an unvisited row with no
// smoothing falls back to uniform. The accumulator keeps its counts and
// can continue observing.
func (a *Accumulator) Chain() (*Chain, error) {
	var total int64
	for _, v := range a.visits {
		total += v
	}
	if total == 0 {
		return nil, ErrNoData
	}
	n := a.n
	c := &Chain{
		N:       n,
		Trans:   stats.NewMatrix(n, n),
		Initial: make([]float64, n),
		Visits:  append([]int64(nil), a.visits...),
	}
	normalize(c.Initial, a.initial, a.smoothing)
	for i := 0; i < n; i++ {
		normalize(c.Trans.Row(i), a.counts[i*n:(i+1)*n], a.smoothing)
	}
	if err := c.freeze(); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	return c, nil
}

// normalize writes the smoothed distribution of counts to dst: each count
// plus smoothing over their total, or uniform when both are zero.
func normalize(dst, counts []float64, smoothing float64) {
	var total float64
	for _, v := range counts {
		total += v
	}
	denom := total + smoothing*float64(len(counts))
	for j := range dst {
		if denom == 0 {
			dst[j] = 1 / float64(len(dst))
		} else {
			dst[j] = (counts[j] + smoothing) / denom
		}
	}
}

// driftMinExpected is the smallest expected cell count a chi-square cell
// contributes with; rows whose total is below minRow are skipped entirely
// (the classic >= 5-per-cell rule is the caller's choice via minRow).
const driftMinExpected = 1e-9

// Drift runs a chi-square goodness-of-fit test of the accumulator's
// observed transition counts against the transition rows of a previously
// trained (served) chain: row by row, observed counts are tested against
// rowTotal * served probability, and the per-row statistics are pooled.
// Rows with fewer than minRow observed transitions are skipped (too little
// data to judge). A small returned P means the freshly observed stream is
// unlikely to come from the served chain — the staleness trigger that
// forces a retrain in the online-training loop.
func Drift(served *Chain, a *Accumulator, minRow float64) (stats.ChiSquareResult, error) {
	if served == nil {
		return stats.ChiSquareResult{}, fmt.Errorf("markov: drift needs a served chain")
	}
	if served.N != a.n {
		return stats.ChiSquareResult{}, fmt.Errorf("markov: state-count mismatch %d vs %d", served.N, a.n)
	}
	if minRow < 1 {
		minRow = 1
	}
	n := a.n
	var stat float64
	df := 0
	for i := 0; i < n; i++ {
		row := a.counts[i*n : (i+1)*n]
		var rowTotal float64
		for _, v := range row {
			rowTotal += v
		}
		if rowTotal < minRow {
			continue
		}
		p := served.Trans.Row(i)
		for j, obs := range row {
			exp := rowTotal * p[j]
			if exp < driftMinExpected {
				if obs > 0 {
					// A transition the served chain considers (near-)
					// impossible was observed: maximal evidence of drift.
					stat += obs * obs / driftMinExpected
				}
				continue
			}
			diff := obs - exp
			stat += diff * diff / exp
		}
		df += n - 1
	}
	if df == 0 {
		return stats.ChiSquareResult{P: 1}, nil
	}
	return stats.ChiSquareResult{
		Statistic: stat,
		DF:        df,
		P:         stats.ChiSquareSF(stat, float64(df)),
	}, nil
}
