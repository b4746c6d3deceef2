package trace

// SpanArena carves per-request span slices out of large chunks, replacing
// the per-request make+growslice churn that dominates synthesis profiles.
// An arena belongs to one synthesis call (it is not safe for concurrent
// use); the requests it backed stay valid after the arena is dropped, since
// chunks are never recycled — a full chunk is simply abandoned to its
// requests and a fresh one started. Reset is the one exception, for an owner
// that knows the requests it backed are dead.
type SpanArena struct {
	chunk []Span
}

// arenaChunkSpans is the default chunk size: large enough that a typical
// synthesis run allocates thousands of requests per chunk, small enough
// (~100 KB) that an abandoned tail wastes little.
const arenaChunkSpans = 1024

// Reset makes the current chunk available again from its start: the spans
// carved from it so far are overwritten by the Takes that follow.
func (a *SpanArena) Reset() { a.chunk = a.chunk[:0] }

// Reserve sizes the arena so the next n spans' worth of Take calls carve
// from one contiguous chunk with no further allocation. Batch producers
// (model synthesis, the trace-v2 block decoder) call it once per batch.
func (a *SpanArena) Reserve(n int) {
	if n > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]Span, 0, n)
	}
}

// Take returns an empty span slice with capacity exactly n, carved from
// the arena. The capacity is capped with a three-index slice, so a caller
// that appends beyond n gets a private reallocated slice instead of
// clobbering the next request's spans.
func (a *SpanArena) Take(n int) []Span {
	if n <= 0 {
		return nil
	}
	if cap(a.chunk)-len(a.chunk) < n {
		size := arenaChunkSpans
		if n > size {
			size = n
		}
		a.chunk = make([]Span, 0, size)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start:start:(start + n)]
}
