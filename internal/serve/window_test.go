package serve

import (
	"testing"

	"dcmodel/internal/trace"
)

// windowReq builds a request with a recognizable class and one span per
// listed subsystem.
func windowReq(class string, subs ...trace.Subsystem) trace.Request {
	r := trace.Request{Class: class}
	for _, s := range subs {
		r.Spans = append(r.Spans, trace.Span{Subsystem: s, Duration: 0.001})
	}
	return r
}

// add folds one request into the window and returns the ID it was given.
func (w *window) add(r trace.Request) int64 {
	w.addBatch([]trace.Request{r})
	return w.nextID - 1
}

// TestWindowEvictionBoundary pins the behavior at exactly cap: filling a
// window to capacity evicts nothing, and the very next add evicts exactly
// the oldest request.
func TestWindowEvictionBoundary(t *testing.T) {
	const cap = 4
	w := newWindow(cap)

	// Fill to exactly cap: every request must be retained.
	for i := 0; i < cap; i++ {
		w.add(windowReq("r", trace.CPU))
	}
	n, c, total, spans := w.stats()
	if n != cap || c != cap || total != cap {
		t.Fatalf("at cap: n=%d capacity=%d total=%d, want %d/%d/%d", n, c, total, cap, cap, cap)
	}
	if spans[trace.CPU] != cap {
		t.Fatalf("at cap: cpu spans = %d, want %d", spans[trace.CPU], cap)
	}
	snap := w.snapshot()
	if snap.Len() != cap {
		t.Fatalf("at cap: snapshot holds %d requests, want %d", snap.Len(), cap)
	}
	for i, r := range snap.Requests {
		if r.ID != int64(i) {
			t.Fatalf("at cap: snapshot[%d].ID = %d, want %d (oldest first)", i, r.ID, i)
		}
	}

	// One past cap: exactly the oldest request (ID 0) is evicted, its
	// spans leave the counters, and occupancy stays pinned at cap.
	w.add(windowReq("r", trace.Storage, trace.Storage))
	n, _, total, spans = w.stats()
	if n != cap {
		t.Fatalf("past cap: n = %d, want %d", n, cap)
	}
	if total != cap+1 {
		t.Fatalf("past cap: total = %d, want %d", total, cap+1)
	}
	if spans[trace.CPU] != cap-1 {
		t.Fatalf("past cap: cpu spans = %d, want %d (one evicted)", spans[trace.CPU], cap-1)
	}
	if spans[trace.Storage] != 2 {
		t.Fatalf("past cap: storage spans = %d, want 2", spans[trace.Storage])
	}
	snap = w.snapshot()
	if snap.Len() != cap {
		t.Fatalf("past cap: snapshot holds %d requests, want %d", snap.Len(), cap)
	}
	for i, r := range snap.Requests {
		if r.ID != int64(i+1) {
			t.Fatalf("past cap: snapshot[%d].ID = %d, want %d (ID 0 evicted)", i, r.ID, i+1)
		}
	}
}

// TestWindowIDsMonotonicAcrossEviction pins that renumbering never
// reuses an ID even after the ring wraps many times.
func TestWindowIDsMonotonicAcrossEviction(t *testing.T) {
	w := newWindow(3)
	var last int64 = -1
	for i := 0; i < 10; i++ {
		id := w.add(windowReq("r", trace.Network))
		if id != last+1 {
			t.Fatalf("add %d assigned ID %d, want %d", i, id, last+1)
		}
		last = id
	}
	snap := w.snapshot()
	want := []int64{7, 8, 9}
	for i, r := range snap.Requests {
		if r.ID != want[i] {
			t.Fatalf("after wrap: snapshot[%d].ID = %d, want %d", i, r.ID, want[i])
		}
	}
}

// TestWindowAddBatchAcrossWrap: a batch that crosses the end of the ring —
// and one longer than the ring — leaves the window as the same requests
// added one by one do: the IDs, the total, the span gauges and which
// requests were evicted.
func TestWindowAddBatchAcrossWrap(t *testing.T) {
	subsystems := []trace.Subsystem{trace.Network, trace.CPU, trace.Memory, trace.Storage}
	reqs := make([]trace.Request, 23)
	for i := range reqs {
		// Request i carries i%4+1 spans, so that an eviction miscounted
		// shows in the gauges.
		reqs[i] = windowReq("r", subsystems[:i%4+1]...)
	}
	const capacity = 5
	for _, batches := range [][]int{{3, 4, 2}, {5, 5, 1}, {2, 11, 3}, {23}} {
		one, batched := newWindow(capacity), newWindow(capacity)
		next := 0
		for _, n := range batches {
			for _, r := range reqs[next : next+n] {
				one.add(r)
			}
			batched.addBatch(reqs[next : next+n])
			next += n

			n1, c1, total1, spans1 := one.stats()
			n2, c2, total2, spans2 := batched.stats()
			if n1 != n2 || c1 != c2 || total1 != total2 || spans1 != spans2 {
				t.Fatalf("batches %v after %d requests: stats (%d %d %d %v), one by one (%d %d %d %v)",
					batches, next, n2, c2, total2, spans2, n1, c1, total1, spans1)
			}
			want, got := one.snapshot().Requests, batched.snapshot().Requests
			if len(got) != len(want) {
				t.Fatalf("batches %v after %d requests: window holds %d, one by one %d", batches, next, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || len(got[i].Spans) != len(want[i].Spans) {
					t.Fatalf("batches %v after %d requests: slot %d is request %d with %d spans, one by one %d with %d",
						batches, next, i, got[i].ID, len(got[i].Spans), want[i].ID, len(want[i].Spans))
				}
			}
			if oldest := int64(max(next-capacity, 0)); got[0].ID != oldest {
				t.Fatalf("batches %v after %d requests: oldest is request %d, want %d", batches, next, got[0].ID, oldest)
			}
		}
	}
}
