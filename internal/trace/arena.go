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
	// taken counts the spans carved since the last Reset, across chunks.
	taken int
}

// arenaChunkSpans is the default chunk size: large enough that a typical
// synthesis run allocates thousands of requests per chunk, small enough
// (~100 KB) that an abandoned tail wastes little.
const arenaChunkSpans = 1024

// maxResetSpans bounds the chunk Reset keeps (4 MiB of spans): an owner that
// recycles its arena must not pin what one outsized stream took.
const maxResetSpans = 1 << 16

// Reset makes the arena's memory available again from its start: the spans
// carved so far are overwritten by the Takes that follow. The chunk kept is
// sized to what was taken since the last Reset (up to maxResetSpans), so an
// owner that decodes stream after stream of one size settles to allocating
// no span, however many chunks the first stream spread over.
func (a *SpanArena) Reset() {
	switch {
	case a.taken > cap(a.chunk) && a.taken <= maxResetSpans:
		a.chunk = make([]Span, 0, a.taken)
	case cap(a.chunk) > maxResetSpans:
		a.chunk = nil
	default:
		a.chunk = a.chunk[:0]
	}
	a.taken = 0
}

// Reserve sizes the arena so the next n spans' worth of Take calls carve
// from one contiguous chunk with no further allocation. Batch producers
// (model synthesis, the trace-v2 block decoder) call it once per batch.
func (a *SpanArena) Reserve(n int) {
	if n > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]Span, 0, n)
	}
}

// slabRequests is how many synthetic requests' spans one reservation of a
// model's synthesis loop covers, bounding both its allocation count and
// the memory it holds per slab.
const slabRequests = 4096

// ReserveSlab is the synthesis loops' Reserve: before request i of n it
// reserves, once per slab, room for the slab's requests at perRequest
// spans each.
func (a *SpanArena) ReserveSlab(i, n, perRequest int) {
	if i%slabRequests == 0 {
		a.Reserve(min(n-i, slabRequests) * perRequest)
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
	a.taken += n
	return a.chunk[start:start:(start + n)]
}
