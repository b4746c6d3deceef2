package obs

import "dcmodel/internal/dapper"

// The JSON schema of GET /v1/traces, shared with cmd/traceview. Span and
// parent IDs are carried explicitly so consumers can re-resolve the tree
// (and well-formedness tests can assert every parent exists).

// AnnotationDump is one timestamped span annotation.
type AnnotationDump struct {
	Time    float64 `json:"time"`
	Message string  `json:"message"`
}

// NodeDump is one span of a dumped trace tree.
type NodeDump struct {
	SpanID      uint64           `json:"span_id"`
	ParentID    uint64           `json:"parent_id,omitempty"` // 0 for the root
	Name        string           `json:"name"`
	Server      int              `json:"server"`
	Start       float64          `json:"start"`
	End         float64          `json:"end"`
	DurationMS  float64          `json:"duration_ms"`
	Annotations []AnnotationDump `json:"annotations,omitempty"`
	Children    []*NodeDump      `json:"children,omitempty"`
}

// TreeDump is one request's dumped trace tree.
type TreeDump struct {
	TraceID uint64    `json:"trace_id"`
	Spans   int       `json:"spans"`
	Depth   int       `json:"depth"`
	Root    *NodeDump `json:"root"`
}

// TraceDump is the full GET /v1/traces response body.
type TraceDump struct {
	Enabled     bool        `json:"enabled"`
	SampleEvery int         `json:"sample_every,omitempty"`
	Capacity    int         `json:"capacity,omitempty"`
	Started     int64       `json:"started"`
	Sampled     int64       `json:"sampled"`
	Held        int         `json:"held"`
	Traces      []*TreeDump `json:"traces"`
}

// DumpTraces is the GET /v1/traces answer of a process whose spanner sp
// records into ring: the trees ring holds, oldest first. A nil sp (tracing
// off) gives enabled=false and an empty forest rather than a 404, so probes
// can tell "off" from "missing".
func DumpTraces(sp *Spanner, ring *TraceRing) TraceDump {
	dump := TraceDump{Traces: []*TreeDump{}}
	if sp == nil {
		return dump
	}
	dump.Enabled = true
	dump.SampleEvery = sp.SampleEvery()
	dump.Capacity = ring.Cap()
	dump.Started, dump.Sampled = sp.Stats()
	for _, t := range ring.Snapshot() {
		if td := dumpTree(t); td != nil {
			dump.Traces = append(dump.Traces, td)
		}
	}
	dump.Held = len(dump.Traces)
	return dump
}

// dumpTree converts an assembled dapper tree into the wire schema.
func dumpTree(t *dapper.Tree) *TreeDump {
	if t == nil || t.Root == nil || t.Root.Span == nil {
		return nil
	}
	return &TreeDump{
		TraceID: uint64(t.Root.Span.Trace),
		Spans:   t.Count,
		Depth:   t.Depth(),
		Root:    dumpNode(t.Root),
	}
}

func dumpNode(n *dapper.Node) *NodeDump {
	s := n.Span
	d := &NodeDump{
		SpanID:     uint64(s.ID),
		ParentID:   uint64(s.Parent),
		Name:       s.Name,
		Server:     s.Server,
		Start:      s.Start,
		End:        s.End,
		DurationMS: 1000 * s.Duration(),
	}
	for _, a := range s.Annotations {
		d.Annotations = append(d.Annotations, AnnotationDump{Time: a.Time, Message: a.Message})
	}
	for _, c := range n.Children {
		d.Children = append(d.Children, dumpNode(c))
	}
	return d
}
