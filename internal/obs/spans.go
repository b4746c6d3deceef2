package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcmodel/internal/dapper"
)

// Spanner is the live tracer of the serving pipeline: it head-samples 1
// of every SampleEvery requests deterministically (request 1, N+1,
// 2N+1, … — no RNG, so a fixed request sequence always samples the same
// requests), builds each sampled request's dapper span tree as the
// request flows through the pipeline, and delivers the finished tree to
// a dapper.Recorder. Unsampled requests cost one atomic increment and
// allocate nothing, mirroring Dapper's negligible-overhead unsampled
// path.
//
// All methods are safe for concurrent use; spans of one trace may be
// started and ended from different goroutines (a handler and its queued
// worker) — the tree is guarded by a per-trace mutex.
type Spanner struct {
	every int64
	rec   dapper.Recorder

	// Now returns the trace clock in seconds. It defaults to wall-clock
	// seconds since the Spanner was built; tests may swap in a
	// deterministic monotone clock before traffic starts.
	Now func() float64

	started  atomic.Int64
	sampled  atomic.Int64
	nextSpan atomic.Uint64 // span IDs, unique across all traces
}

// NewSpanner returns a live tracer keeping 1 of every sampleEvery
// requests, delivering finished trees to rec.
func NewSpanner(sampleEvery int, rec dapper.Recorder) (*Spanner, error) {
	if sampleEvery < 1 {
		return nil, fmt.Errorf("obs: sampleEvery must be >= 1, got %d", sampleEvery)
	}
	if rec == nil {
		return nil, fmt.Errorf("obs: spanner needs a recorder")
	}
	epoch := time.Now()
	return &Spanner{
		every: int64(sampleEvery),
		rec:   rec,
		Now:   func() float64 { return time.Since(epoch).Seconds() },
	}, nil
}

// SampleEvery reports the sampling rate (1 of every N).
func (sp *Spanner) SampleEvery() int {
	if sp == nil {
		return 0
	}
	return int(sp.every)
}

// Stats reports requests seen vs sampled — the overhead proxy.
func (sp *Spanner) Stats() (started, sampled int64) {
	if sp == nil {
		return 0, 0
	}
	return sp.started.Load(), sp.sampled.Load()
}

// StartRequest begins a new trace with a root span, or returns nil when
// this request is not sampled (or the Spanner itself is nil — a disabled
// tracer). A nil *LiveSpan is a valid no-op span: every method on it is
// nil-safe, so instrumentation sites never branch on sampling.
func (sp *Spanner) StartRequest(name string, server int) *LiveSpan {
	if sp == nil {
		return nil
	}
	n := sp.started.Add(1)
	if (n-1)%sp.every != 0 {
		return nil
	}
	sp.sampled.Add(1)
	at := sp.Now()
	node := &dapper.Node{Span: &dapper.Span{
		Trace: dapper.TraceID(n),
		ID:    dapper.SpanID(sp.nextSpan.Add(1)),
		Name:  name, Server: server,
		Start: at, End: at,
	}}
	ls := &LiveSpan{sp: sp, node: node}
	ls.root = ls
	ls.tree = &dapper.Tree{Root: node, Count: 1}
	return ls
}

// LiveSpan is one started span of a live trace. The zero case is a nil
// pointer (unsampled trace), on which every method is a no-op.
//
// Once the root span is Finished, the tree belongs to the recorder:
// late Child/End/Annotate calls from stragglers (a queued job that
// outlived its request's deadline) are dropped, never racing the
// recorded tree.
type LiveSpan struct {
	sp   *Spanner
	root *LiveSpan // the trace's root span; owns mu, tree and done
	node *dapper.Node

	// Root-only state.
	mu   sync.Mutex
	tree *dapper.Tree
	done bool
}

// Child starts a nested span (a pipeline stage, an outgoing call) on the
// same server as its parent. Returns nil if the trace is unsampled or
// already finished.
func (l *LiveSpan) Child(name string) *LiveSpan {
	if l == nil {
		return nil
	}
	r := l.root
	at := r.sp.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return nil
	}
	node := &dapper.Node{Span: &dapper.Span{
		Trace:  l.node.Span.Trace,
		ID:     dapper.SpanID(r.sp.nextSpan.Add(1)),
		Parent: l.node.Span.ID,
		Name:   name, Server: l.node.Span.Server,
		Start: at, End: at,
	}}
	l.node.Children = append(l.node.Children, node)
	r.tree.Count++
	return &LiveSpan{sp: r.sp, root: r, node: node}
}

// Annotate attaches a timestamped formatted message to the span.
func (l *LiveSpan) Annotate(format string, args ...any) {
	if l == nil {
		return
	}
	r := l.root
	at := r.sp.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	l.node.Span.Annotations = append(l.node.Span.Annotations,
		dapper.Annotation{Time: at, Message: fmt.Sprintf(format, args...)})
}

// End closes the span at the current clock (never before its start).
// Ending a span twice keeps the later end.
func (l *LiveSpan) End() {
	if l == nil {
		return
	}
	r := l.root
	at := r.sp.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	if at > l.node.Span.End {
		l.node.Span.End = at
	}
}

// Finish closes the trace's root span and delivers the assembled tree to
// the recorder. Call it exactly once per sampled request, on the root
// span; afterwards every other span of the trace is inert.
func (l *LiveSpan) Finish() {
	if l == nil {
		return
	}
	r := l.root
	at := r.sp.Now()
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	if at > r.node.Span.End {
		r.node.Span.End = at
	}
	tree := r.tree
	r.mu.Unlock()
	r.sp.rec.Record(tree)
}

// spanKey carries a *LiveSpan through a request context.
type spanKey struct{}

// ContextWithSpan attaches a live span to the context; a nil span
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *LiveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the live span attached to the context, or nil.
func SpanFrom(ctx context.Context) *LiveSpan {
	s, _ := ctx.Value(spanKey{}).(*LiveSpan)
	return s
}

// TraceRing is a bounded Recorder keeping the most recent trees — the
// collection buffer behind GET /v1/traces. Recording never blocks and
// never grows: the oldest tree is evicted when the ring is full.
type TraceRing struct {
	mu       sync.Mutex
	buf      []*dapper.Tree
	next     int
	n        int
	recorded int64
}

// NewTraceRing returns a ring holding up to capacity trees (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]*dapper.Tree, capacity)}
}

// Record implements dapper.Recorder.
func (r *TraceRing) Record(t *dapper.Tree) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.recorded++
	r.mu.Unlock()
}

// Snapshot returns the held trees, oldest first.
func (r *TraceRing) Snapshot() []*dapper.Tree {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*dapper.Tree, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Recorded reports how many trees have ever been recorded (including
// evicted ones).
func (r *TraceRing) Recorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// Len reports how many trees the ring currently holds.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap reports the ring capacity.
func (r *TraceRing) Cap() int { return len(r.buf) }

// Tee fans every recorded tree out to each non-nil recorder, in order.
func Tee(recs ...dapper.Recorder) dapper.Recorder {
	kept := make([]dapper.Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	return teeRecorder(kept)
}

type teeRecorder []dapper.Recorder

func (t teeRecorder) Record(tree *dapper.Tree) {
	for _, r := range t {
		r.Record(tree)
	}
}
