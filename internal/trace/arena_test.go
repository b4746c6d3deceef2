package trace

import "testing"

func TestSpanArenaTake(t *testing.T) {
	var a SpanArena
	s := a.Take(4)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("Take(4) = len %d cap %d, want 0/4", len(s), cap(s))
	}
	if a.Take(0) != nil || a.Take(-1) != nil {
		t.Fatal("Take of non-positive n should be nil")
	}
}

// TestSpanArenaIsolation checks that appending past a taken slice's
// capacity cannot clobber a neighboring request's spans.
func TestSpanArenaIsolation(t *testing.T) {
	var a SpanArena
	first := a.Take(2)
	first = append(first, Span{Bank: 1}, Span{Bank: 2})
	second := a.Take(2)
	second = append(second, Span{Bank: 3}, Span{Bank: 4})
	// Overflow the first slice: the append must copy out of the arena.
	first = append(first, Span{Bank: 99})
	if second[0].Bank != 3 || second[1].Bank != 4 {
		t.Fatalf("overflowing one slice clobbered its neighbor: %+v", second)
	}
	if first[2].Bank != 99 {
		t.Fatalf("overflow append lost the new span: %+v", first)
	}
}

// TestSpanArenaChunkRollover checks that slices stay valid and zeroed
// across chunk boundaries, including requests larger than a whole chunk.
func TestSpanArenaChunkRollover(t *testing.T) {
	var a SpanArena
	var taken [][]Span
	for i := 0; i < 3*arenaChunkSpans/5; i++ {
		s := a.Take(5)
		for j := 0; j < 5; j++ {
			if cap(s) != 5 {
				t.Fatalf("take %d: cap %d, want 5", i, cap(s))
			}
			s = append(s, Span{Bank: i})
		}
		taken = append(taken, s)
	}
	big := a.Take(2 * arenaChunkSpans)
	if cap(big) != 2*arenaChunkSpans {
		t.Fatalf("oversized take has cap %d", cap(big))
	}
	for i, s := range taken {
		for j := range s {
			if s[j].Bank != i {
				t.Fatalf("take %d span %d has bank %d", i, j, s[j].Bank)
			}
		}
	}
}

// TestSpanArenaResetSettles: a stream that spread over several chunks is
// taken again after Reset with no allocation at all, and a stream past
// maxResetSpans leaves no chunk larger than that behind.
func TestSpanArenaResetSettles(t *testing.T) {
	var a SpanArena
	stream := func() {
		a.Reserve(700) // a block, as the trace-v2 decoder reserves one
		for i := 0; i < 700; i++ {
			a.Take(1)
		}
		for i := 0; i < 3*arenaChunkSpans/7; i++ {
			a.Take(7)
		}
		a.Take(2 * arenaChunkSpans)
		a.Reset()
	}
	stream() // sizes the chunk
	if allocs := testing.AllocsPerRun(20, stream); allocs != 0 {
		t.Errorf("a second identical stream after Reset allocated %.0f times, want 0", allocs)
	}

	a.Take(maxResetSpans + 1)
	a.Reset()
	if c := cap(a.chunk); c > maxResetSpans {
		t.Errorf("after an outsized stream Reset kept a chunk of %d spans, want at most %d", c, maxResetSpans)
	}
	for i := 0; i < 3; i++ {
		a.Take(maxResetSpans / 2)
	}
	a.Reset()
	if c := cap(a.chunk); c > maxResetSpans {
		t.Errorf("after a stream of %d spans Reset kept a chunk of %d, want at most %d", 3*maxResetSpans/2, c, maxResetSpans)
	}
}
