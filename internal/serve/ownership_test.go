package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dcmodel/internal/trace"
)

// TestWindowOwnsItsSpans: the window keeps a copy of what it is handed and a
// snapshot keeps a copy of the window. Mutating a trace after Ingest leaves
// the window as it was, and neither that nor ingesting over every slot a
// snapshot was taken from changes the snapshot by a byte.
func TestWindowOwnsItsSpans(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 64
	s := newTestServer(t, cfg)
	tr := gfsTrace(t, 64, 1)
	if _, _, err := s.Ingest(tr); err != nil {
		t.Fatal(err)
	}
	snap := s.win.snapshot()
	want := traceCSV(t, snap)

	for i := range tr.Requests {
		for j := range tr.Requests[i].Spans {
			sp := &tr.Requests[i].Spans[j]
			sp.Duration, sp.LBN, sp.Bytes = sp.Duration+1, sp.LBN+7, sp.Bytes+1
		}
	}
	if got := traceCSV(t, s.win.snapshot()); !bytes.Equal(got, want) {
		t.Fatal("mutating a trace after Ingest changed the window")
	}
	if got := traceCSV(t, snap); !bytes.Equal(got, want) {
		t.Fatal("mutating a trace after Ingest changed an earlier snapshot")
	}

	// Every slot the snapshot was taken from is written over.
	if _, _, err := s.Ingest(gfsTrace(t, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if got := traceCSV(t, snap); !bytes.Equal(got, want) {
		t.Fatal("ingesting over a snapshot's slots changed the snapshot")
	}
}

// TestIngestAllocatesNoSpan: on a warmed daemon, POST /v1/ingest of 500
// requests allocates no more than one of 50, in either codec. The body is
// decoded through a pooled reader and copied into slots that already hold
// arrays of the right size, so nothing the handler allocates grows with the
// requests or their spans.
func TestIngestAllocatesNoSpan(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	// A collection between runs may empty the pool; none is needed here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := quietConfig()
	cfg.Window = 1000 // a multiple of both bodies: every slot sees one request
	cfg.RetrainMin = 1 << 30
	s := newTestServer(t, cfg)
	big := gfsTrace(t, 500, 3)
	small := &trace.Trace{Requests: big.Requests[:50]}
	h := s.Handler()
	for _, codec := range []string{"text/csv", trace.ContentTypeV2} {
		encode := func(tr *trace.Trace) []byte {
			var buf bytes.Buffer
			if codec == trace.ContentTypeV2 {
				if err := trace.WriteBinary(&buf, tr); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			return traceCSV(t, tr)
		}
		type allocs struct{ objects, bytes uint64 }
		perPost := func(tr *trace.Trace) allocs {
			body := encode(tr)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", rd)
			req.Header.Set("Content-Type", codec)
			w := &discardWriter{header: http.Header{}}
			post := func() {
				rd.Reset(body)
				w.code = 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					t.Fatalf("%s ingest of %d requests: status %d", codec, tr.Len(), w.code)
				}
			}
			// Warm: the first model, every slot's array, the pooled reader.
			for i := 0; i < 2*cfg.Window/tr.Len()+1; i++ {
				post()
			}
			// The least of 20 posts: what every post allocates, and none of
			// what the runtime or another goroutine does once in a while.
			least := allocs{math.MaxUint64, math.MaxUint64}
			var before, after runtime.MemStats
			for i := 0; i < 20; i++ {
				runtime.ReadMemStats(&before)
				post()
				runtime.ReadMemStats(&after)
				least.objects = min(least.objects, after.Mallocs-before.Mallocs)
				least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		large, few := perPost(big), perPost(small)
		if large.objects > few.objects || large.bytes > few.bytes {
			t.Errorf("%s: %d allocations (%d B) per 500-request POST, %d (%d B) per 50-request POST; want no more for 500",
				codec, large.objects, large.bytes, few.objects, few.bytes)
		}
	}
}

// TestSnapshotsOutliveIngest: several connections ingest, in both codecs,
// while retrains train on their snapshots and characterize reads its own.
// No span of any snapshot changes after it was taken: each is held, at the
// end, to the copy made of it as it was taken.
func TestSnapshotsOutliveIngest(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 256
	cfg.RetrainMin = 1 << 30 // retrains come from the Retrain loop below
	s := newTestServer(t, cfg)
	if _, _, err := s.Ingest(gfsTrace(t, 256, 4)); err != nil {
		t.Fatal(err)
	}
	type taken struct {
		snap *trace.Trace
		copy []trace.Span
	}
	var (
		mu    sync.Mutex
		snaps []taken
	)
	s.win.onSnapshot = func(tr *trace.Trace) {
		var spans []trace.Span
		for _, r := range tr.Requests {
			spans = append(spans, r.Spans...)
		}
		mu.Lock()
		snaps = append(snaps, taken{tr, spans})
		mu.Unlock()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var bodies [2][]byte
	tr := gfsTrace(t, 64, 5)
	bodies[0] = traceCSV(t, tr)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	bodies[1] = bin.Bytes()
	contentTypes := [2]string{"text/csv", trace.ContentTypeV2}

	const conns, posts = 3, 8
	errc := make(chan error, conns+2)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				k := (c + i) % 2
				resp, err := http.Post(ts.URL+"/v1/ingest", contentTypes[k], bytes.NewReader(bodies[k]))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.Retrain(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/characterize?n=40&seed=%d", ts.URL, i+1))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("characterize: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(snaps) < 4 {
		t.Fatalf("%d snapshots taken, want the 3 retrains' and at least one characterize's", len(snaps))
	}
	for i, sn := range snaps {
		k := 0
		for _, r := range sn.snap.Requests {
			for _, sp := range r.Spans {
				if sp != sn.copy[k] {
					t.Fatalf("snapshot %d: span %d changed after the snapshot was taken: %+v, was %+v", i, k, sp, sn.copy[k])
				}
				k++
			}
		}
	}
}

// BenchmarkIngest prices POST /v1/ingest of a 500-request body through the
// handler, in process, on a daemon with a default window and no retrain
// beyond the first. B/op is what one body costs the heap.
func BenchmarkIngest(b *testing.B) {
	cfg := quietConfig()
	cfg.RetrainMin = 1 << 30
	tr := gfsTrace(b, 500, 3)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, tr); err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, tr); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{{"csv", "text/csv", csv.Bytes()}, {"v2", trace.ContentTypeV2, bin.Bytes()}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			rd := bytes.NewReader(c.body)
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", rd)
			req.Header.Set("Content-Type", c.contentType)
			w := &discardWriter{header: http.Header{}}
			post := func() {
				rd.Reset(c.body)
				w.code = 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("ingest: status %d", w.code)
				}
			}
			for i := 0; i < 2*cfg.Window/tr.Len(); i++ {
				post() // the first model, then a full window
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
