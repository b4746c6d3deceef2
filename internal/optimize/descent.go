package optimize

import "context"

// Step is one entry of a Plan's audit trail: which coordinate the descent
// swept, how many twin evaluations it asked for, and the best evaluation
// known after the step.
type Step struct {
	Step int `json:"step"`
	// Note labels the step ("coordinate servers", "coordinate platform",
	// "coordinate dvfs", "coordinate replicas").
	Note string `json:"note"`
	// Evaluated is the number of twin evaluations the step requested
	// (memo hits included — the count depends only on the search path).
	Evaluated int `json:"evaluated"`
	// Best is the best evaluation found so far.
	Best Evaluation `json:"best"`
}

// maxDescentPasses bounds the coordinate-descent outer loop; each pass
// strictly improves the incumbent, so the bound only guards pathological
// objectives.
const maxDescentPasses = 32

// coordinateDescent is the provisioning search: starting from the most
// generous configuration (MaxServers on the first platform), it sweeps one
// coordinate at a time — batch-evaluating every value of that coordinate
// with the others held fixed — and moves to the best, repeating until a
// full pass moves nothing. The predicted latency falls monotonically in the
// server count, so the servers sweep at the final point finds the cheapest
// feasible farm size there. It uses no randomness, and every selection goes
// through the total order better, so the trail does not depend on workers.
// ctx is checked before each sweep; a cancelled search returns ctx.Err().
// It returns the trail and the best evaluation found.
func coordinateDescent(ctx context.Context, ev *Evaluator, workers int) ([]Step, Evaluation, error) {
	space := ev.Space()
	cur := Config{
		Servers:  space.MaxServers,
		Platform: space.Platforms[0],
		DVFS:     space.DVFSStates[0],
		Replicas: space.MinReplicas,
	}
	best, err := ev.Eval(cur)
	if err != nil {
		return nil, best, err
	}
	var steps []Step
	coords := []string{"servers", "platform", "dvfs", "replicas"}
	for pass := 0; pass < maxDescentPasses; pass++ {
		moved := false
		for _, coord := range coords {
			if err := ctx.Err(); err != nil {
				return steps, best, err
			}
			cands := coordinateCandidates(space, cur, coord)
			if len(cands) < 2 {
				continue
			}
			evs, err := ev.EvalBatch(cands, workers)
			if err != nil {
				return nil, best, err
			}
			top := bestOf(evs)
			if top.Config != cur {
				cur, moved = top.Config, true
			}
			if better(top, best) {
				best = top
			}
			steps = append(steps, Step{
				Step: len(steps), Note: "coordinate " + coord,
				Evaluated: len(cands), Best: best,
			})
		}
		if !moved {
			break
		}
	}
	return steps, best, nil
}

// coordinateCandidates enumerates cur with every value of one coordinate.
func coordinateCandidates(space Space, cur Config, coord string) []Config {
	var out []Config
	switch coord {
	case "servers":
		for k := space.MinServers; k <= space.MaxServers; k++ {
			c := cur
			c.Servers = k
			out = append(out, c)
		}
	case "platform":
		for _, p := range space.Platforms {
			c := cur
			c.Platform = p
			out = append(out, c)
		}
	case "dvfs":
		for _, d := range space.DVFSStates {
			c := cur
			c.DVFS = d
			out = append(out, c)
		}
	case "replicas":
		for r := space.MinReplicas; r <= space.MaxReplicas; r++ {
			c := cur
			c.Replicas = r
			out = append(out, c)
		}
	}
	return out
}

// bestOf selects by the total evaluation order (deterministic for any
// slice ordering, since better is total).
func bestOf(evs []Evaluation) Evaluation {
	best := evs[0]
	for _, e := range evs[1:] {
		if better(e, best) {
			best = e
		}
	}
	return best
}
