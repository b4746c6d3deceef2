package trace

import (
	"fmt"
	"sort"

	"dcmodel/internal/stats"
)

// Prepared is a training trace together with everything the three trainers
// (KOOZA, in-breadth, in-depth) derive from it before they diverge, derived
// once: the validated requests in arrival order, their interarrival gaps,
// the best-fitting arrival distribution and the per-class partition with
// each class's phase paths counted. It is read-only and safe to hand to
// several trainers at once.
type Prepared struct {
	// Requests holds the trace's requests ordered by arrival (ties keep
	// trace order). It aliases the source trace when that is already in
	// arrival order, so the source must not change while the Prepared is in
	// use.
	Requests []Request
	// Gaps holds the len(Requests)-1 interarrival gaps.
	Gaps []float64
	// Arrival is the family that fits Gaps best by KS distance.
	Arrival stats.FitResult
	// Classes partitions Requests by class, in first-seen order.
	Classes []PreparedClass
}

// PreparedClass is one request class of a Prepared trace.
type PreparedClass struct {
	Name string
	// Requests holds the class's requests in arrival order.
	Requests []Request
	// Paths counts the phase paths of the class's requests that have spans,
	// already ranked.
	Paths *PhasePaths
}

// Prepare validates tr and derives the trainers' shared input from it.
func Prepare(tr *Trace) (*Prepared, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("invalid training trace: %w", err)
	}
	reqs := tr.Requests
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival }) {
		sorted := &Trace{Requests: append([]Request(nil), reqs...)}
		sorted.SortByArrival()
		reqs = sorted.Requests
	}
	if len(reqs) < 3 {
		return nil, fmt.Errorf("need >= 3 requests to fit the arrival process, got %d", len(reqs))
	}
	gaps := make([]float64, len(reqs)-1)
	for i := range gaps {
		gaps[i] = reqs[i+1].Arrival - reqs[i].Arrival
	}
	best, err := stats.FitBest(gaps)
	if err != nil {
		return nil, fmt.Errorf("arrival fit: %w", err)
	}
	return &Prepared{Requests: reqs, Gaps: gaps, Arrival: best, Classes: partition(reqs)}, nil
}

// partition splits reqs by class in one counting pass and one filling pass
// over a single backing array.
func partition(reqs []Request) []PreparedClass {
	index := make(map[string]int)
	classOf := make([]int32, len(reqs))
	var sizes []int
	var classes []PreparedClass
	for i := range reqs {
		c, ok := index[reqs[i].Class]
		if !ok {
			c = len(classes)
			index[reqs[i].Class] = c
			classes = append(classes, PreparedClass{Name: reqs[i].Class, Paths: new(PhasePaths)})
			sizes = append(sizes, 0)
		}
		classOf[i] = int32(c)
		sizes[c]++
	}
	backing := make([]Request, len(reqs))
	for c, n := range sizes {
		classes[c].Requests = backing[:0:n]
		backing = backing[n:]
	}
	for i := range reqs {
		pc := &classes[classOf[i]]
		pc.Requests = append(pc.Requests, reqs[i])
		if len(reqs[i].Spans) > 0 {
			pc.Paths.Add(reqs[i].Spans)
		}
	}
	for _, pc := range classes {
		pc.Paths.Ranked()
	}
	return classes
}

// SpanCount returns the trace's total number of spans in the subsystem.
func (p *Prepared) SpanCount(sub Subsystem) int {
	var n int
	for _, pc := range p.Classes {
		n += pc.Paths.SpanCount(sub)
	}
	return n
}
