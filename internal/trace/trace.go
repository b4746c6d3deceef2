// Package trace defines the workload-trace schema shared by the whole
// toolkit: requests composed of per-subsystem spans, in the style of
// Dapper's request trees. The GFS simulator emits these traces, the three
// modeling approaches train on them, and the replay engine consumes them.
//
// A span records what the paper's per-subsystem models need: the network
// model sees arrival times and sizes, the CPU model sees utilization, the
// memory model sees bank/size/type, and the storage model sees
// LBN/size/type — exactly the columns of the paper's Table 2.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"dcmodel/internal/stats"
)

// Subsystem identifies the system part a span executed in — the four parts
// the paper models: storage, processor, memory, network.
type Subsystem int

// The four subsystems of the paper's per-server model.
const (
	Network Subsystem = iota
	CPU
	Memory
	Storage
	numSubsystems
)

// Subsystems lists all subsystems in canonical order.
func Subsystems() []Subsystem { return []Subsystem{Network, CPU, Memory, Storage} }

// String implements fmt.Stringer.
func (s Subsystem) String() string {
	switch s {
	case Network:
		return "network"
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Storage:
		return "storage"
	default:
		return fmt.Sprintf("subsystem(%d)", int(s))
	}
}

// ParseSubsystem parses the String form.
func ParseSubsystem(s string) (Subsystem, error) {
	switch s {
	case "network":
		return Network, nil
	case "cpu":
		return CPU, nil
	case "memory":
		return Memory, nil
	case "storage":
		return Storage, nil
	default:
		// The clone keeps s from escaping, so that a caller parsing out of a
		// byte slice converts without allocating.
		return 0, fmt.Errorf("trace: unknown subsystem %q", strings.Clone(s))
	}
}

// Op is the operation type of a storage or memory span.
type Op int

// Operation types.
const (
	OpNone Op = iota
	OpRead
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpNone:
		return "none"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// ParseOp parses the String form.
func ParseOp(s string) (Op, error) {
	switch s {
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	case "none", "":
		return OpNone, nil
	default:
		return 0, fmt.Errorf("trace: unknown op %q", strings.Clone(s)) // as in ParseSubsystem
	}
}

// Span is one phase of a request's execution in one subsystem.
type Span struct {
	// Subsystem is where the span executed.
	Subsystem Subsystem
	// Start is the span start time in seconds since trace start.
	Start float64
	// Duration is the span length in seconds.
	Duration float64
	// Op is the operation type (storage and memory spans).
	Op Op
	// Bytes is the payload size (network transfer, memory access, or
	// storage I/O size).
	Bytes int64
	// LBN is the starting logical block number of a storage span.
	LBN int64
	// Bank is the DRAM bank of a memory span.
	Bank int
	// Util is the CPU utilization achieved during a CPU span, in [0, 1].
	Util float64
}

// End returns the span end time.
func (s Span) End() float64 { return s.Start + s.Duration }

// Request is one traced user request: its arrival and the ordered spans it
// executed (Figure 1's Network -> CPU -> Memory -> Storage -> CPU ->
// Network path for GFS).
type Request struct {
	// ID is unique within a trace.
	ID int64
	// Class is a free-form request class label, e.g. "read64K".
	Class string
	// Server is the server that executed the request.
	Server int
	// Arrival is the request arrival time in seconds since trace start.
	Arrival float64
	// Retries counts client retry attempts caused by server failures before
	// the request completed. Zero in healthy traces.
	Retries int `json:",omitempty"`
	// FailedOver reports whether the request completed on a different
	// replica than the one it first targeted.
	FailedOver bool `json:",omitempty"`
	// Spans holds the request's phases ordered by start time.
	Spans []Span
}

// Latency returns the end-to-end latency: last span end minus arrival.
// A request with no spans has zero latency.
func (r Request) Latency() float64 {
	var end float64
	for _, s := range r.Spans {
		if e := s.End(); e > end {
			end = e
		}
	}
	if end < r.Arrival {
		return 0
	}
	return end - r.Arrival
}

// SpansIn returns the request's spans in the given subsystem.
func (r Request) SpansIn(sub Subsystem) []Span {
	var out []Span
	for _, s := range r.Spans {
		if s.Subsystem == sub {
			out = append(out, s)
		}
	}
	return out
}

// Phases returns the subsystem sequence of the request in span order —
// the raw material of KOOZA's time-dependency queue.
func (r Request) Phases() []Subsystem {
	out := make([]Subsystem, len(r.Spans))
	for i, s := range r.Spans {
		out[i] = s.Subsystem
	}
	return out
}

// Trace is an ordered collection of requests.
type Trace struct {
	Requests []Request
}

// ErrEmptyTrace is returned by operations that need a non-empty trace.
var ErrEmptyTrace = errors.New("trace: empty trace")

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// SortByArrival sorts requests by arrival time (stable).
func (t *Trace) SortByArrival() {
	slices.SortStableFunc(t.Requests, func(a, b Request) int {
		return stats.CompareLess(a.Arrival, b.Arrival)
	})
}

// Classes returns the distinct request classes in first-seen order.
func (t *Trace) Classes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range t.Requests {
		if !seen[r.Class] {
			seen[r.Class] = true
			out = append(out, r.Class)
		}
	}
	return out
}

// ByClass returns the sub-trace of requests with the given class. The
// returned trace shares request values with t.
func (t *Trace) ByClass(class string) *Trace {
	out := &Trace{}
	for _, r := range t.Requests {
		if r.Class == class {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// Filter returns the sub-trace of requests for which keep returns true.
func (t *Trace) Filter(keep func(Request) bool) *Trace {
	out := &Trace{}
	for _, r := range t.Requests {
		if keep(r) {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// Merge combines traces into one, re-sorted by arrival. Request IDs are
// preserved; callers merging traces from different servers should have
// distinct Server fields set.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, tr := range traces {
		out.Requests = append(out.Requests, tr.Requests...)
	}
	out.SortByArrival()
	return out
}

// Arrivals returns the request arrival times in trace order.
func (t *Trace) Arrivals() []float64 {
	out := make([]float64, len(t.Requests))
	for i, r := range t.Requests {
		out[i] = r.Arrival
	}
	return out
}

// Interarrivals returns the gaps between consecutive arrivals (sorted by
// arrival time). A trace with fewer than two requests yields nil.
func (t *Trace) Interarrivals() []float64 {
	if len(t.Requests) < 2 {
		return nil
	}
	arr := t.Arrivals()
	stats.SortFloats(arr)
	out := make([]float64, len(arr)-1)
	for i := 1; i < len(arr); i++ {
		out[i-1] = arr[i] - arr[i-1]
	}
	return out
}

// Latencies returns per-request end-to-end latencies in trace order.
func (t *Trace) Latencies() []float64 {
	out := make([]float64, len(t.Requests))
	for i, r := range t.Requests {
		out[i] = r.Latency()
	}
	return out
}

// SpanFeature extracts one numeric feature from every span of the given
// subsystem across the trace, in request-then-span order.
func (t *Trace) SpanFeature(sub Subsystem, f func(Span) float64) []float64 {
	var out []float64
	for _, r := range t.Requests {
		for _, s := range r.Spans {
			if s.Subsystem == sub {
				out = append(out, f(s))
			}
		}
	}
	return out
}

// Validate checks trace invariants: non-negative times and durations, spans
// not starting before their request's arrival, and unique request IDs.
func (t *Trace) Validate() error {
	ids := make(map[int64]bool, len(t.Requests))
	for i, r := range t.Requests {
		if r.Arrival < 0 || math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) {
			return fmt.Errorf("trace: request %d has invalid arrival %g", r.ID, r.Arrival)
		}
		if ids[r.ID] {
			return fmt.Errorf("trace: duplicate request ID %d (index %d)", r.ID, i)
		}
		ids[r.ID] = true
		if r.Retries < 0 {
			return fmt.Errorf("trace: request %d has negative retries %d", r.ID, r.Retries)
		}
		for j, s := range r.Spans {
			if s.Duration < 0 || math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) {
				return fmt.Errorf("trace: request %d span %d has invalid duration %g", r.ID, j, s.Duration)
			}
			if s.Start+1e-12 < r.Arrival || math.IsNaN(s.Start) || math.IsInf(s.Start, 0) {
				return fmt.Errorf("trace: request %d span %d start %g invalid for arrival %g", r.ID, j, s.Start, r.Arrival)
			}
			if s.Subsystem < 0 || s.Subsystem >= numSubsystems {
				return fmt.Errorf("trace: request %d span %d has invalid subsystem %d", r.ID, j, s.Subsystem)
			}
			if s.Bytes < 0 {
				return fmt.Errorf("trace: request %d span %d has negative bytes", r.ID, j)
			}
			if s.Util < 0 || s.Util > 1 || math.IsNaN(s.Util) {
				return fmt.Errorf("trace: request %d span %d has utilization %g outside [0,1]", r.ID, j, s.Util)
			}
		}
	}
	return nil
}

// Summary aggregates a trace's headline statistics.
type Summary struct {
	Requests     int
	Classes      []string
	Duration     float64
	MeanLatency  float64
	P99Latency   float64
	MeanInterarr float64
	// SpanCounts holds per-subsystem span counts.
	SpanCounts map[Subsystem]int
}

// Summarize computes a Summary of the trace.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Requests:   len(t.Requests),
		Classes:    t.Classes(),
		SpanCounts: make(map[Subsystem]int),
	}
	if len(t.Requests) == 0 {
		return s
	}
	lat := t.Latencies()
	s.MeanLatency = stats.Mean(lat)
	s.P99Latency = stats.Quantile(lat, 0.99)
	var end float64
	for _, r := range t.Requests {
		if e := r.Arrival + r.Latency(); e > end {
			end = e
		}
		for _, sp := range r.Spans {
			s.SpanCounts[sp.Subsystem]++
		}
	}
	s.Duration = end
	s.MeanInterarr = stats.Mean(t.Interarrivals())
	return s
}
