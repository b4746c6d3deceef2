package trace

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
)

// PhasePath is one distinct phase path (subsystem sequence) of a set of
// requests, with the number of requests that took it.
type PhasePath struct {
	Phases []Subsystem
	Count  int
}

// PhasePaths counts the distinct phase paths of the span sequences added to
// it. Sequences are keyed by one byte per span, looked up without
// allocating; only a path never seen before costs memory. The zero value is
// ready to use. Once Ranked has been called, and until the next Add, every
// method but Add is safe for concurrent use.
type PhasePaths struct {
	index  map[string]int // compact key -> position in paths
	paths  []PhasePath    // first-seen order
	ranked []PhasePath    // paths in canonical order, built by Ranked
	rank   []int          // position in paths -> position in ranked
}

// keyStack is the stack space a compact key gets before it spills to the
// heap; no path of a shipped workload comes near it.
const keyStack = 64

// appendKey appends the compact key of spans to buf: the subsystem as one
// byte, with an escape for values a valid trace cannot hold, so that no two
// sequences share a key.
func appendKey(buf []byte, spans []Span) []byte {
	for i := range spans {
		if v := spans[i].Subsystem; v >= 0 && v < 0xff {
			buf = append(buf, byte(v))
		} else {
			buf = binary.AppendVarint(append(buf, 0xff), int64(v))
		}
	}
	return buf
}

// Add counts one request's span sequence.
func (p *PhasePaths) Add(spans []Span) {
	var stack [keyStack]byte
	key := appendKey(stack[:0], spans)
	i, ok := p.index[string(key)]
	if !ok {
		if p.index == nil {
			p.index = make(map[string]int)
		}
		phases := make([]Subsystem, len(spans))
		for j := range spans {
			phases[j] = spans[j].Subsystem
		}
		i = len(p.paths)
		p.index[string(key)] = i
		p.paths = append(p.paths, PhasePath{Phases: phases})
	}
	p.paths[i].Count++
	p.ranked = nil
}

// Ranked returns the distinct paths most frequent first. Equally frequent
// paths come in the lexicographic order of their printed form
// "[network cpu ...]" — the order every trained model and scorecard has
// always broken such ties by, which is neither the numeric order of the
// subsystems nor shorter-path-first. The returned slice is shared: callers
// must not modify it or the Phases it holds.
func (p *PhasePaths) Ranked() []PhasePath {
	if p.ranked != nil || len(p.paths) == 0 {
		return p.ranked
	}
	printed := make([]string, len(p.paths))
	order := make([]int, len(p.paths))
	for i, path := range p.paths {
		printed[i] = printPhases(path.Phases)
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(p.paths[b].Count, p.paths[a].Count); c != 0 {
			return c
		}
		return strings.Compare(printed[a], printed[b])
	})
	p.ranked = make([]PhasePath, len(order))
	p.rank = make([]int, len(order))
	for r, i := range order {
		p.ranked[r] = p.paths[i]
		p.rank[i] = r
	}
	return p.ranked
}

// Rank returns the index in Ranked of the path spans takes, or false when
// no such sequence was added.
func (p *PhasePaths) Rank(spans []Span) (int, bool) {
	p.Ranked()
	var stack [keyStack]byte
	i, ok := p.index[string(appendKey(stack[:0], spans))]
	if !ok {
		return 0, false
	}
	return p.rank[i], true
}

// SpanCount returns how many spans of the subsystem the added sequences
// held in total.
func (p *PhasePaths) SpanCount(sub Subsystem) int {
	var n int
	for _, path := range p.paths {
		for _, s := range path.Phases {
			if s == sub {
				n += path.Count
			}
		}
	}
	return n
}

// printPhases formats a path the way fmt.Sprint formats a []Subsystem.
func printPhases(phases []Subsystem) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.String())
	}
	b.WriteByte(']')
	return b.String()
}

// PhasesMatch reports whether spans follow exactly the given phase path.
func PhasesMatch(spans []Span, phases []Subsystem) bool {
	if len(spans) != len(phases) {
		return false
	}
	for i := range spans {
		if spans[i].Subsystem != phases[i] {
			return false
		}
	}
	return true
}
