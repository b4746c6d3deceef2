package serve

import (
	"sync"

	"dcmodel/internal/trace"
)

// window is the bounded ingestion buffer the warm models are trained from:
// a ring of the most recently ingested requests, with per-subsystem span
// counts tracked incrementally so the /metrics occupancy gauges never have
// to walk the buffer. Ingested requests are renumbered with a monotonic ID
// so requests arriving from independent client streams never collide (the
// trainers require unique IDs).
type window struct {
	mu     sync.Mutex
	buf    []trace.Request // ring storage, len == capacity
	head   int             // next write position
	n      int             // filled entries
	nextID int64           // monotonic ID assigned at ingest
	total  int64           // requests ever ingested
	spans  [4]int64        // spans currently in the window, per subsystem
}

func newWindow(capacity int) *window {
	return &window{buf: make([]trace.Request, capacity)}
}

// addBatch folds requests into the window in order, under one acquisition
// of the lock, evicting the oldest for each one past capacity. A request is
// given the next ID as it enters.
func (w *window) addBatch(rs []trace.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range rs {
		slot := &w.buf[w.head]
		if w.n == len(w.buf) {
			for _, s := range slot.Spans {
				w.spans[spanBucket(s.Subsystem)]--
			}
		} else {
			w.n++
		}
		*slot = rs[i]
		slot.ID = w.nextID
		w.nextID++
		for _, s := range slot.Spans {
			w.spans[spanBucket(s.Subsystem)]++
		}
		if w.head++; w.head == len(w.buf) {
			w.head = 0
		}
	}
	w.total += int64(len(rs))
}

// spanBucket clamps a subsystem into the four counted buckets (defensive:
// decoded input is already validated, but the window must not index out of
// range on any request it is handed).
func spanBucket(s trace.Subsystem) int {
	if s < 0 || s > 3 {
		return 0
	}
	return int(s)
}

// snapshot copies the window contents, oldest first, as a standalone
// trace. Span slices are shared with the ring (the trainers treat traces
// as read-only); request values are copied.
func (w *window) snapshot() *trace.Trace {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := &trace.Trace{Requests: make([]trace.Request, 0, w.n)}
	start := 0
	if w.n == len(w.buf) {
		start = w.head
	}
	for i := 0; i < w.n; i++ {
		out.Requests = append(out.Requests, w.buf[(start+i)%len(w.buf)])
	}
	return out
}

// stats returns the occupancy gauges: filled entries, capacity, total ever
// ingested, and per-subsystem span counts.
func (w *window) stats() (n, capacity int, total int64, spans [4]int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n, len(w.buf), w.total, w.spans
}
