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
//
// Each slot owns its span storage: a request's spans are copied in, over the
// array the slot's previous request left, so steady-state ingest allocates
// no span and the window shares no memory with the caller or the decoder.
type window struct {
	mu     sync.Mutex
	buf    []trace.Request // ring storage, len == capacity
	head   int             // next write position
	n      int             // filled entries
	nextID int64           // monotonic ID assigned at ingest
	total  int64           // requests ever ingested
	spans  [4]int64        // spans currently in the window, per subsystem
	// onSnapshot, when set (tests only, before the first ingest), is called
	// with each snapshot as it is taken, under mu.
	onSnapshot func(*trace.Trace)
}

func newWindow(capacity int) *window {
	return &window{buf: make([]trace.Request, capacity)}
}

// maxSlotSpans bounds the span array a slot keeps for its next request
// (4 KiB). A request with more spans gets an array of its own, dropped when
// the slot takes a smaller one, so one huge request cannot pin memory past
// its eviction; at most a full window of 64-span requests' worth is kept.
const maxSlotSpans = 64

// addBatch copies requests into the window in order, under one acquisition
// of the lock, evicting the oldest for each one past capacity. A request is
// given the next ID as it enters. rs is neither kept nor changed.
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
		spans := slot.Spans[:0]
		if cap(spans) > maxSlotSpans {
			spans = nil
		}
		*slot = rs[i]
		slot.Spans = append(spans, rs[i].Spans...)
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

// snapshot deep-copies the window contents, oldest first, as a standalone
// trace: the spans of every request go into one array of their own, so
// whoever takes the snapshot (a retrain, characterize, provision) owns all
// of it, and later ingest, which writes over the slots, cannot reach it.
func (w *window) snapshot() *trace.Trace {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, n := range w.spans {
		total += n
	}
	out := &trace.Trace{Requests: make([]trace.Request, w.n)}
	spans := make([]trace.Span, 0, total)
	start := 0
	if w.n == len(w.buf) {
		start = w.head
	}
	for i := range out.Requests {
		r := &out.Requests[i]
		*r = w.buf[(start+i)%len(w.buf)]
		if len(r.Spans) == 0 {
			r.Spans = nil
			continue
		}
		from := len(spans)
		spans = append(spans, r.Spans...)
		r.Spans = spans[from:len(spans):len(spans)]
	}
	if w.onSnapshot != nil {
		w.onSnapshot(out)
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
