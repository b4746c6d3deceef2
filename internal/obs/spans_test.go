package obs

import (
	"context"
	"sync"
	"testing"

	"dcmodel/internal/dapper"
)

// fixedClock returns a Now func yielding 1, 2, 3, … on successive calls.
func fixedClock() func() float64 {
	var mu sync.Mutex
	var t float64
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		t++
		return t
	}
}

func TestSpannerDeterministicHeadSampling(t *testing.T) {
	var c dapper.Collector
	sp, err := NewSpanner(3, &c)
	if err != nil {
		t.Fatal(err)
	}
	var sampledAt []int
	for i := 1; i <= 10; i++ {
		s := sp.StartRequest("req", 0)
		if s != nil {
			sampledAt = append(sampledAt, i)
			s.Finish()
		}
	}
	// Head sampling keeps requests 1, 4, 7, 10 — counter-based, no RNG,
	// so a fixed request sequence always samples the same requests.
	want := []int{1, 4, 7, 10}
	if len(sampledAt) != len(want) {
		t.Fatalf("sampled %v, want %v", sampledAt, want)
	}
	for i := range want {
		if sampledAt[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampledAt, want)
		}
	}
	started, sampled := sp.Stats()
	if started != 10 || sampled != 4 {
		t.Fatalf("stats = (%d, %d), want (10, 4)", started, sampled)
	}
	if c.Len() != 4 {
		t.Fatalf("collector holds %d trees, want 4", c.Len())
	}
}

func TestSpannerValidation(t *testing.T) {
	var c dapper.Collector
	if _, err := NewSpanner(0, &c); err == nil {
		t.Fatal("sampleEvery=0 accepted")
	}
	if _, err := NewSpanner(1, nil); err == nil {
		t.Fatal("nil recorder accepted")
	}
}

func TestLiveSpanTreeShape(t *testing.T) {
	var c dapper.Collector
	sp, _ := NewSpanner(1, &c)
	sp.Now = fixedClock()

	root := sp.StartRequest("http:replay", 0) // t=1
	root.Annotate("requests=%d", 42)          // t=2
	child := root.Child("replay")             // t=3
	grand := child.Child("replay.disk")       // t=4
	grand.End()                               // t=5
	child.End()                               // t=6
	root.Finish()                             // t=7

	trees := c.Trees()
	if len(trees) != 1 {
		t.Fatalf("recorded %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Count != 3 {
		t.Fatalf("tree.Count = %d, want 3", tree.Count)
	}
	r := tree.Root
	if r.Span.Name != "http:replay" || r.Span.Start != 1 || r.Span.End != 7 {
		t.Fatalf("root span = %+v", r.Span)
	}
	if len(r.Span.Annotations) != 1 || r.Span.Annotations[0].Message != "requests=42" {
		t.Fatalf("root annotations = %+v", r.Span.Annotations)
	}
	if len(r.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(r.Children))
	}
	ch := r.Children[0]
	if ch.Span.Parent != r.Span.ID || ch.Span.Start != 3 || ch.Span.End != 6 {
		t.Fatalf("child span = %+v", ch.Span)
	}
	if len(ch.Children) != 1 || ch.Children[0].Span.Parent != ch.Span.ID {
		t.Fatalf("grandchild = %+v", ch.Children)
	}
	// The root must cover its children.
	if ch.Span.Start < r.Span.Start || ch.Span.End > r.Span.End {
		t.Fatalf("root [%g,%g] does not cover child [%g,%g]",
			r.Span.Start, r.Span.End, ch.Span.Start, ch.Span.End)
	}
}

// TestLiveSpanInertAfterFinish: once the root is finished the tree
// belongs to the recorder — a straggler goroutine (a queued job that
// outlived its request's deadline) must not mutate it.
func TestLiveSpanInertAfterFinish(t *testing.T) {
	var c dapper.Collector
	sp, _ := NewSpanner(1, &c)
	root := sp.StartRequest("req", 0)
	child := root.Child("stage")
	root.Finish()

	if late := root.Child("late"); late != nil {
		t.Fatal("Child after Finish returned a live span")
	}
	child.Annotate("late annotation")
	child.End()
	root.Finish() // double Finish: must not record twice

	trees := c.Trees()
	if len(trees) != 1 {
		t.Fatalf("recorded %d trees, want 1", len(trees))
	}
	if trees[0].Count != 2 {
		t.Fatalf("tree.Count = %d, want 2 (late child dropped)", trees[0].Count)
	}
	if n := len(trees[0].Root.Children[0].Span.Annotations); n != 0 {
		t.Fatalf("late annotation survived: %d", n)
	}
}

func TestNilSpanSafety(t *testing.T) {
	var sp *Spanner
	if sp.StartRequest("x", 0) != nil {
		t.Fatal("nil spanner sampled")
	}
	if sp.SampleEvery() != 0 {
		t.Fatal("nil spanner SampleEvery != 0")
	}
	var s *LiveSpan
	// Every method must be a no-op, not a panic.
	s.Annotate("x")
	s.End()
	s.Finish()
	if s.Child("y") != nil {
		t.Fatal("nil span produced a child")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("nil span attached to context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	var c dapper.Collector
	sp, _ := NewSpanner(1, &c)
	s := sp.StartRequest("req", 0)
	ctx := ContextWithSpan(context.Background(), s)
	if SpanFrom(ctx) != s {
		t.Fatal("span did not round-trip through context")
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context returned a span")
	}
}

func TestTraceRingEviction(t *testing.T) {
	ring := NewTraceRing(3)
	if ring.Cap() != 3 {
		t.Fatalf("cap = %d", ring.Cap())
	}
	mk := func(id int64) *dapper.Tree {
		return &dapper.Tree{Root: &dapper.Node{Span: &dapper.Span{Trace: dapper.TraceID(id), ID: 1}}, Count: 1}
	}
	for id := int64(1); id <= 5; id++ {
		ring.Record(mk(id))
	}
	if ring.Len() != 3 || ring.Recorded() != 5 {
		t.Fatalf("len = %d recorded = %d, want 3 and 5", ring.Len(), ring.Recorded())
	}
	snap := ring.Snapshot()
	var got []int64
	for _, tr := range snap {
		got = append(got, int64(tr.Root.Span.Trace))
	}
	// Oldest first, the two oldest evicted.
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("snapshot trace IDs = %v, want [3 4 5]", got)
	}
}

func TestTraceRingMinimumCapacity(t *testing.T) {
	ring := NewTraceRing(0)
	if ring.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", ring.Cap())
	}
}

func TestTeeSkipsNil(t *testing.T) {
	var a, b dapper.Collector
	rec := Tee(&a, nil, &b)
	rec.Record(&dapper.Tree{Root: &dapper.Node{Span: &dapper.Span{}}, Count: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee delivered (%d, %d), want (1, 1)", a.Len(), b.Len())
	}
}

func TestDumpTreeWellFormed(t *testing.T) {
	var c dapper.Collector
	sp, _ := NewSpanner(1, &c)
	sp.Now = fixedClock()
	root := sp.StartRequest("req", 2)
	ch := root.Child("a")
	ch.Annotate("k=%d", 1)
	ch.End()
	root.Child("b").End()
	root.Finish()

	d := dumpTree(c.Trees()[0])
	if d == nil || d.Spans != 3 || d.Depth != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Root.ParentID != 0 || d.Root.Server != 2 {
		t.Fatalf("root dump = %+v", d.Root)
	}
	ids := map[uint64]bool{d.Root.SpanID: true}
	for _, child := range d.Root.Children {
		if !ids[child.ParentID] {
			t.Fatalf("child %d has unresolved parent %d", child.SpanID, child.ParentID)
		}
		ids[child.SpanID] = true
		if child.Start < d.Root.Start || child.End > d.Root.End {
			t.Fatalf("root does not cover child: root [%g,%g], child [%g,%g]",
				d.Root.Start, d.Root.End, child.Start, child.End)
		}
	}
	if len(d.Root.Children[0].Annotations) != 1 {
		t.Fatalf("annotations lost: %+v", d.Root.Children[0])
	}
	if dumpTree(nil) != nil {
		t.Fatal("dumpTree(nil) != nil")
	}
}

// TestLiveSpanConcurrency exercises the per-tree mutex: spans of one
// trace started, annotated and finished from many goroutines while the
// root finishes concurrently. Run under -race.
func TestLiveSpanConcurrency(t *testing.T) {
	ring := NewTraceRing(8)
	sp, _ := NewSpanner(1, ring)
	for round := 0; round < 20; round++ {
		root := sp.StartRequest("req", 0)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := root.Child("stage")
				c.Annotate("note")
				c.End()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Finish()
		}()
		wg.Wait()
	}
	if ring.Recorded() != 20 {
		t.Fatalf("recorded %d trees, want 20", ring.Recorded())
	}
}
