package markov

import "fmt"

// Higher-order Markov chains via state-space expansion: an order-k chain
// over n states is a first-order chain over n^k composite states. This is
// the "additional detail increases the model's complexity" axis of the
// paper's trade-off, made concrete: parameters grow as n^(k+1).

// OrderK is an order-k Markov chain over n base states.
type OrderK struct {
	// N is the base state count; K the order.
	N, K int
	// Chain is the expanded first-order chain over N^K composite states.
	Chain *Chain
}

// TrainOrderK trains an order-k chain from state sequences. n^k composite
// states are allocated; keep n and k small (n^k <= 1<<20 enforced).
func TrainOrderK(seqs [][]int, n, k int, smoothing float64) (*OrderK, error) {
	if k < 1 {
		return nil, fmt.Errorf("markov: order must be >= 1, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("markov: need at least one state, got %d", n)
	}
	expanded := 1
	for i := 0; i < k; i++ {
		expanded *= n
		if expanded > 1<<20 {
			return nil, fmt.Errorf("markov: order-%d chain over %d states needs %d composite states (> 2^20)", k, n, expanded)
		}
	}
	// Project each sequence onto composite states: the composite at
	// position t encodes (s_{t-k+1}, ..., s_t).
	var projected [][]int
	for _, seq := range seqs {
		if len(seq) < k {
			continue
		}
		for _, s := range seq {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("markov: state %d out of range 0..%d", s, n-1)
			}
		}
		comp := make([]int, 0, len(seq)-k+1)
		cur := 0
		for i, s := range seq {
			cur = (cur*n + s) % expanded
			if i >= k-1 {
				comp = append(comp, cur)
			}
		}
		projected = append(projected, comp)
	}
	chain, err := Train(projected, expanded, smoothing)
	if err != nil {
		return nil, err
	}
	return &OrderK{N: n, K: k, Chain: chain}, nil
}

// NumParams returns the expanded chain's parameter count.
func (o *OrderK) NumParams() int { return o.Chain.NumParams() }

// LogLikelihood scores a base-state sequence under the model.
func (o *OrderK) LogLikelihood(seq []int) float64 {
	if len(seq) < o.K {
		return 0
	}
	expanded := o.Chain.N
	comp := make([]int, 0, len(seq)-o.K+1)
	cur := 0
	for i, s := range seq {
		cur = (cur*o.N + s) % expanded
		if i >= o.K-1 {
			comp = append(comp, cur)
		}
	}
	return o.Chain.LogLikelihood(comp)
}
