// Package dapper is a lightweight distributed-tracing substrate in the
// style of Google's Dapper, which the paper describes as the archetypal
// in-depth data-collection infrastructure: requests are traced "the moment
// [they arrive] in the front-end server and until the response is sent to
// the originating client", using "trees of nested RPCs, spans (i.e. tree
// nodes) and annotations", with 1-out-of-N sampling for low overhead and a
// unique global identifier tying every message to its originating request.
//
// The package provides exactly those mechanisms — trace trees of nested
// spans with annotations delivered to a Recorder, deterministic 1/N head
// sampling and overhead accounting (RecordWorkload) — plus a bridge to the
// flat per-subsystem trace schema the modeling packages consume.
package dapper

import (
	"fmt"
	"strings"
	"sync"
)

// TraceID is the unique global identifier of one request's trace tree.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Annotation is a timestamped note attached to a span (Dapper's
// application annotations).
type Annotation struct {
	Time    float64
	Message string
}

// Span is one node of a trace tree: a timed operation on one server,
// possibly nested under a parent span.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // 0 for the root span
	// Name identifies the operation, e.g. "gfs.Read" or "rpc:disk.io".
	Name string
	// Server is the machine the span executed on.
	Server int
	// Start and End bound the span in seconds.
	Start, End float64
	// Annotations holds the span's timestamped notes.
	Annotations []Annotation
}

// Duration returns the span length.
func (s *Span) Duration() float64 { return s.End - s.Start }

// Recorder consumes assembled trace trees. It is the single
// instrumentation seam shared by everything that emits Dapper-style
// traces: the GFS simulator (gfs.RunConfig.Recorder), the replay engine
// (replay.Platform.Recorder) and the serving daemon's live pipeline
// tracer all deliver finished trees to a Recorder, and collectors —
// in-memory lists, ring buffers, tees — compose
// behind it.
//
// A Recorder wired into a concurrent producer (the sharded simulator, the
// daemon) must be safe for concurrent Record calls; Collector and the
// obs-package recorders are.
type Recorder interface {
	// Record delivers one finished trace tree. Implementations must not
	// mutate the tree; producers hand over ownership and do not touch it
	// again.
	Record(*Tree)
}

// Collector is the simplest Recorder: a concurrency-safe in-memory list
// of every recorded tree, in arrival order.
type Collector struct {
	mu    sync.Mutex
	trees []*Tree
}

// Record appends the tree.
func (c *Collector) Record(t *Tree) {
	c.mu.Lock()
	c.trees = append(c.trees, t)
	c.mu.Unlock()
}

// Trees returns a copy of the recorded trees, in arrival order.
func (c *Collector) Trees() []*Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Tree(nil), c.trees...)
}

// Len reports how many trees have been recorded.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.trees)
}

// Node is one node of an assembled trace tree.
type Node struct {
	Span     *Span
	Children []*Node
}

// Tree is one request's assembled trace.
type Tree struct {
	Root *Node
	// Count is the number of spans in the tree.
	Count int
}

// Depth returns the maximum nesting depth (root = 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil {
		return 0
	}
	best := 0
	for _, c := range n.Children {
		if d := depth(c); d > best {
			best = d
		}
	}
	return best + 1
}

// Latency returns the root span's duration.
func (t *Tree) Latency() float64 {
	if t.Root == nil || t.Root.Span == nil {
		return 0
	}
	return t.Root.Span.Duration()
}

// Render formats a tree as an indented span listing (the Dapper UI's
// waterfall, in ASCII).
func (t *Tree) Render() string {
	var b strings.Builder
	renderNode(&b, t.Root, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, indent int) {
	if n == nil {
		return
	}
	fmt.Fprintf(b, "%s%s [server %d] %.4f..%.4f (%.4f ms)",
		strings.Repeat("  ", indent), n.Span.Name, n.Span.Server,
		n.Span.Start, n.Span.End, 1000*n.Span.Duration())
	for _, a := range n.Span.Annotations {
		fmt.Fprintf(b, " {%.4f: %s}", a.Time, a.Message)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, indent+1)
	}
}
