package dapper

import (
	"fmt"
	"strings"

	"dcmodel/internal/trace"
)

// Bridge between Dapper trace trees and the flat per-subsystem schema of
// internal/trace. Converting a request into a tree models what an
// instrumented application would report; converting back shows the paper's
// criticism of tracing infrastructures in action: the tree preserves
// control flow and timing but "lack[s] the ability to model and recreate
// the characteristics of a workload apart from its network traffic" — the
// subsystem features (sizes, LBNs, banks) survive only as annotations.

const phasePrefix = "phase:"

// FromRequest builds the trace tree an instrumented server would emit for
// one request: a root span covering the whole request with one child span
// per subsystem phase, annotated with the phase's features.
func FromRequest(r trace.Request) *Tree {
	root := &Node{Span: &Span{
		Trace: TraceID(r.ID + 1), ID: 1,
		Name: "request:" + r.Class, Server: r.Server,
		Start: r.Arrival, End: r.Arrival + r.Latency(),
	}}
	tree := &Tree{Root: root, Count: 1}
	for i, s := range r.Spans {
		child := &Node{Span: &Span{
			Trace: root.Span.Trace, ID: SpanID(i + 2), Parent: root.Span.ID,
			Name: phasePrefix + s.Subsystem.String(), Server: r.Server,
			Start: s.Start, End: s.End(),
		}}
		child.Span.Annotations = featureAnnotations(s)
		root.Children = append(root.Children, child)
		tree.Count++
	}
	return tree
}

func featureAnnotations(s trace.Span) []Annotation {
	var out []Annotation
	switch s.Subsystem {
	case trace.Network:
		out = append(out, Annotation{Time: s.Start, Message: fmt.Sprintf("bytes=%d", s.Bytes)})
	case trace.CPU:
		out = append(out, Annotation{Time: s.Start, Message: fmt.Sprintf("util=%.4f bytes=%d", s.Util, s.Bytes)})
	case trace.Memory:
		out = append(out, Annotation{Time: s.Start, Message: fmt.Sprintf("bank=%d bytes=%d op=%s", s.Bank, s.Bytes, s.Op)})
	case trace.Storage:
		out = append(out, Annotation{Time: s.Start, Message: fmt.Sprintf("lbn=%d bytes=%d op=%s", s.LBN, s.Bytes, s.Op)})
	}
	return out
}

// ToRequest reconstructs a flat request from a phase tree. Only control
// flow and timing survive: subsystem features are zero, exactly the
// information an in-depth tracing tool retains for modeling.
func ToRequest(t *Tree) (trace.Request, error) {
	if t.Root == nil || t.Root.Span == nil {
		return trace.Request{}, fmt.Errorf("dapper: empty tree")
	}
	root := t.Root.Span
	class := strings.TrimPrefix(root.Name, "request:")
	req := trace.Request{
		ID:      int64(root.Trace) - 1,
		Class:   class,
		Server:  root.Server,
		Arrival: root.Start,
	}
	for _, c := range t.Root.Children {
		name := c.Span.Name
		if !strings.HasPrefix(name, phasePrefix) {
			return trace.Request{}, fmt.Errorf("dapper: unexpected child span %q", name)
		}
		sub, err := trace.ParseSubsystem(strings.TrimPrefix(name, phasePrefix))
		if err != nil {
			return trace.Request{}, err
		}
		req.Spans = append(req.Spans, trace.Span{
			Subsystem: sub,
			Start:     c.Span.Start,
			Duration:  c.Span.Duration(),
		})
	}
	return req, nil
}

// RecordWorkload replays a whole workload trace through deterministic
// 1-in-sampleEvery head sampling, the way a deployed Dapper samples
// production traffic, and delivers each sampled request's span tree
// (FromRequest, features as annotations) to rec. It returns how many
// requests were seen and how many were recorded — the tracing overhead
// proxy the paper quotes (1 out of 1000 requests for <1.5% overhead).
func RecordWorkload(tr *trace.Trace, sampleEvery int, rec Recorder) (started, sampled int64, err error) {
	if sampleEvery < 1 {
		return 0, 0, fmt.Errorf("dapper: sampleEvery must be >= 1, got %d", sampleEvery)
	}
	if rec == nil {
		return 0, 0, fmt.Errorf("dapper: RecordWorkload needs a Recorder")
	}
	if tr == nil {
		return 0, 0, fmt.Errorf("dapper: RecordWorkload needs a trace")
	}
	for _, r := range tr.Requests {
		started++
		if (started-1)%int64(sampleEvery) != 0 {
			continue
		}
		sampled++
		rec.Record(FromRequest(r))
	}
	return started, sampled, nil
}
