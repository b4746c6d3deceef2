package markov

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"dcmodel/internal/stats"
)

// Hierarchical is a two-level Markov model: a top-level chain over groups
// and one sub-chain per group over the member states. The paper notes that
// "in order to convey more detailed information on one or multiple aspects
// of the workload, the simple Markov Chain can be substituted by a
// corresponding hierarchical representation"; for storage this is a chain
// over coarse LBN regions with per-region chains over fine ranges.
type Hierarchical struct {
	// Groups maps each state to its group index.
	Groups []int
	// Top is the chain over group indices.
	Top *Chain
	// Sub holds one chain per group; Sub[g] is defined over local indices
	// 0..len(Members[g])-1.
	Sub []*Chain
	// Members lists the states of each group, in local-index order.
	Members [][]int
}

// TrainHierarchical trains a two-level model from state sequences, a state
// count and a state-to-group mapping (length n, group indices must be dense
// 0..G-1).
func TrainHierarchical(seqs [][]int, n int, groups []int, smoothing float64) (*Hierarchical, error) {
	if len(groups) != n {
		return nil, fmt.Errorf("markov: groups length %d, want %d", len(groups), n)
	}
	ngroups := 0
	for _, g := range groups {
		if g < 0 {
			return nil, fmt.Errorf("markov: negative group index %d", g)
		}
		if g+1 > ngroups {
			ngroups = g + 1
		}
	}
	if ngroups == 0 {
		return nil, ErrNoData
	}
	members := make([][]int, ngroups)
	local := make([]int, n) // state -> index within its group
	for s, g := range groups {
		local[s] = len(members[g])
		members[g] = append(members[g], s)
	}
	for g, m := range members {
		if len(m) == 0 {
			return nil, fmt.Errorf("markov: group %d has no states", g)
		}
	}
	// Project sequences to group sequences for the top chain and to
	// per-group local sequences for the sub-chains. A sub-sequence breaks
	// whenever the walk leaves the group.
	topSeqs := make([][]int, 0, len(seqs))
	subSeqs := make([][][]int, ngroups)
	for _, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		top := make([]int, len(seq))
		for i, s := range seq {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("markov: state %d out of range 0..%d", s, n-1)
			}
			top[i] = groups[s]
		}
		topSeqs = append(topSeqs, top)
		start := 0
		for i := 1; i <= len(seq); i++ {
			if i == len(seq) || groups[seq[i]] != groups[seq[start]] {
				g := groups[seq[start]]
				run := make([]int, i-start)
				for k := start; k < i; k++ {
					run[k-start] = local[seq[k]]
				}
				subSeqs[g] = append(subSeqs[g], run)
				start = i
			}
		}
	}
	top, err := Train(topSeqs, ngroups, smoothing)
	if err != nil {
		return nil, fmt.Errorf("markov: top-level chain: %w", err)
	}
	subs := make([]*Chain, ngroups)
	for g := range subs {
		sub, err := Train(subSeqs[g], len(members[g]), smoothing)
		if err != nil {
			// Group never visited: uniform chain.
			sub = uniformChain(len(members[g]))
		}
		subs[g] = sub
	}
	return &Hierarchical{Groups: groups, Top: top, Sub: subs, Members: members}, nil
}

func uniformChain(n int) *Chain {
	c := &Chain{N: n, Trans: stats.NewMatrix(n, n), Initial: make([]float64, n), Visits: make([]int64, n)}
	// No counts normalize to uniform.
	normalize(c.Initial, c.Initial, 0)
	for i := 0; i < n; i++ {
		normalize(c.Trans.Row(i), c.Trans.Row(i), 0)
	}
	_ = c.freeze() // uniform rows always build
	return c
}

// UnmarshalJSON decodes a hierarchy encoding/json wrote; its chains
// freeze as they decode. A hierarchy whose groups, members and sub-chains
// disagree is refused.
func (h *Hierarchical) UnmarshalJSON(data []byte) error {
	type fields Hierarchical // the exported fields, without this method
	var f fields
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.Top == nil || len(f.Sub) != f.Top.N || len(f.Members) != f.Top.N {
		return fmt.Errorf("markov: hierarchy needs one sub-chain and member list per group")
	}
	for g, members := range f.Members {
		if f.Sub[g] == nil || f.Sub[g].N != len(members) {
			return fmt.Errorf("markov: hierarchy group %d has %d members but no sub-chain over them", g, len(members))
		}
		for _, s := range members {
			if s < 0 || s >= len(f.Groups) || f.Groups[s] != g {
				return fmt.Errorf("markov: hierarchy group %d lists state %d of another group", g, s)
			}
		}
	}
	*h = Hierarchical(f)
	return nil
}

// Simulate generates a state sequence of the given length: the top chain
// chooses the group trajectory and each group's sub-chain chooses states
// within the group.
func (h *Hierarchical) Simulate(length int, r *rand.Rand) []int {
	if length <= 0 {
		return nil
	}
	out := make([]int, length)
	g := h.Top.Start(r)
	loc := h.Sub[g].Start(r)
	out[0] = h.Members[g][loc]
	for i := 1; i < length; i++ {
		ng := h.Top.Step(g, r)
		if ng == g {
			loc = h.Sub[g].Step(loc, r)
		} else {
			g = ng
			loc = h.Sub[g].Start(r)
		}
		out[i] = h.Members[g][loc]
	}
	return out
}

// NumParams returns the total free-parameter count of the hierarchy.
func (h *Hierarchical) NumParams() int {
	total := h.Top.NumParams()
	for _, s := range h.Sub {
		total += s.NumParams()
	}
	return total
}

// GroupOf returns the group of a state.
func (h *Hierarchical) GroupOf(state int) int { return h.Groups[state] }
