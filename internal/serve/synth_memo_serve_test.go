package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/fault"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// synthURL is one /v1/synthesize query.
func synthURL(base, model string, n int, seed int64, format string, replay bool) string {
	u := fmt.Sprintf("%s/v1/synthesize?model=%s&n=%d&seed=%d&format=%s", base, model, n, seed, format)
	if replay {
		u += "&replay=1"
	}
	return u
}

// memoDaemon is a quiet daemon over the 300-request window every test of
// the synthesis memo trains on, and its HTTP front.
func memoDaemon(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	return s, ts
}

// mustGet fetches url and wants a 200.
func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("%s = %d (%s)", url, code, body)
	}
	return body
}

// kept is how many traces the served generation keeps.
func kept(s *Server) int {
	ms := s.model.Load()
	ms.derivedMu.Lock()
	defer ms.derivedMu.Unlock()
	return len(ms.synths)
}

// keptTrace is the served generation's trace for key; the test fails if
// the generation keeps none.
func keptTrace(t *testing.T, s *Server, key synthKey) *trace.Trace {
	t.Helper()
	ms := s.model.Load()
	ms.derivedMu.Lock()
	get := ms.synths[key]
	ms.derivedMu.Unlock()
	if get == nil {
		t.Fatalf("no trace kept for %+v", key)
	}
	tr, err := get()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceDigest covers every field of every request and span; %v prints each
// float in the shortest form that reads back to the same bits.
func traceDigest(tr *trace.Trace) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprint(tr.Requests)))
}

// TestSynthesizeMemo: the first query of a generation for a (model, n,
// seed) synthesizes and keeps the trace; every later one, in any format and
// with or without replay, synthesizes nothing and answers the bytes a fresh
// daemon answers. Another model, n or seed, and a retrain, each synthesize
// again.
func TestSynthesizeMemo(t *testing.T) {
	s, ts := memoDaemon(t)
	_, fresh := memoDaemon(t)
	type query struct {
		model  string
		n      int
		seed   int64
		format string
		replay bool
	}
	ask := func(q query, hit bool) {
		t.Helper()
		hits, before := s.metrics.synthMemoHits.Value(), kept(s)
		body := mustGet(t, synthURL(ts.URL, q.model, q.n, q.seed, q.format, q.replay))
		wantHits, wantKept := hits, before+1
		if hit {
			wantHits, wantKept = hits+1, before
		}
		if got := s.metrics.synthMemoHits.Value(); got != wantHits {
			t.Fatalf("%+v: memo hits %d -> %d, want %d", q, hits, got, wantHits)
		}
		if got := kept(s); got != wantKept {
			t.Fatalf("%+v: %d traces kept, want %d", q, got, wantKept)
		}
		if want := mustGet(t, synthURL(fresh.URL, q.model, q.n, q.seed, q.format, q.replay)); !bytes.Equal(body, want) {
			t.Fatalf("%+v: the answer differs from a fresh daemon's", q)
		}
	}

	first := query{"kooza", 200, 3, "csv", false}
	ask(first, false)
	for _, format := range []string{"csv", "json", "binary"} {
		for _, replay := range []bool{false, true} {
			q := first
			q.format, q.replay = format, replay
			ask(q, true)
		}
	}
	for _, q := range []query{
		{"inbreadth", 200, 3, "csv", false},
		{"indepth", 200, 3, "binary", true},
		{"kooza", 201, 3, "csv", false},
		{"kooza", 200, 4, "json", false},
	} {
		ask(q, false)
		ask(q, true)
	}

	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	if got := kept(s); got != 0 {
		t.Fatalf("a fresh generation keeps %d traces, want none", got)
	}
	ask(first, false)
	ask(first, true)
}

// TestSynthesizeMemoSingleFlight: identical first asks arriving together
// wait for one synthesis, and all get the same bytes.
func TestSynthesizeMemoSingleFlight(t *testing.T) {
	s, ts := memoDaemon(t)
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			format := []string{"csv", "json", "binary", "csv"}[i%4]
			code, body := get(t, synthURL(ts.URL, "inbreadth", 500, 5, format, i%4 == 3))
			if code != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := s.metrics.synthMemoHits.Value(); got != clients-1 {
		t.Fatalf("%d concurrent first asks: %d memo hits, want %d (one synthesis)", clients, got, clients-1)
	}
	if got := kept(s); got != 1 {
		t.Fatalf("%d traces kept, want 1", got)
	}
	for i := 4; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[i%4]) {
			t.Fatalf("client %d got a different answer from client %d", i, i%4)
		}
	}
}

// TestSynthesizeMemoBudget: traces are kept first come, first served while
// their requests fit in synthMemoBudget; a query past it synthesizes, answers
// the same bytes, and keeps nothing.
func TestSynthesizeMemoBudget(t *testing.T) {
	s, ts := memoDaemon(t)
	_, fresh := memoDaemon(t)
	over := synthURL(ts.URL, "kooza", synthMemoBudget+1, 1, "binary", false)
	for i := 0; i < 2; i++ {
		body := mustGet(t, over)
		if got := kept(s); got != 0 {
			t.Fatalf("an over-budget n was kept (%d traces)", got)
		}
		if want := mustGet(t, synthURL(fresh.URL, "kooza", synthMemoBudget+1, 1, "binary", false)); !bytes.Equal(body, want) {
			t.Fatal("the over-budget answer differs from a fresh daemon's")
		}
	}
	if got := s.metrics.synthMemoHits.Value(); got != 0 {
		t.Fatalf("over-budget queries counted %d memo hits, want 0", got)
	}
	half := synthMemoBudget / 2
	mustGet(t, synthURL(ts.URL, "kooza", half, 1, "csv", false))
	mustGet(t, synthURL(ts.URL, "kooza", synthMemoBudget-half, 2, "csv", false))
	if got := kept(s); got != 2 {
		t.Fatalf("two traces filling the budget exactly: %d kept, want 2", got)
	}
	mustGet(t, synthURL(ts.URL, "kooza", 1, 3, "csv", false))
	mustGet(t, synthURL(ts.URL, "kooza", 1, 3, "csv", false))
	if got, hits := kept(s), s.metrics.synthMemoHits.Value(); got != 2 || hits != 0 {
		t.Fatalf("a full budget: %d traces kept and %d hits, want 2 and 0", got, hits)
	}
	mustGet(t, synthURL(ts.URL, "kooza", half, 1, "json", false))
	if hits := s.metrics.synthMemoHits.Value(); hits != 1 {
		t.Fatalf("a trace admitted before the budget filled: %d hits, want 1", hits)
	}
}

// TestSynthesizeMemoReadOnly: replay reads the kept trace and copies its
// spans before it times them, so a replayed answer — healthy or under an
// armed fault scenario — leaves the kept trace bit for bit as it was, and a
// faulted replay still follows the faults: it answers what a fresh daemon
// with the same scenario answers, retries included.
func TestSynthesizeMemoReadOnly(t *testing.T) {
	s, ts := memoDaemon(t)
	fresh, freshTS := memoDaemon(t)
	key := synthKey{"kooza", 400, 7}
	url := func(base string, replay bool) string {
		return synthURL(base, key.model, key.n, key.seed, "csv", replay)
	}
	plain := mustGet(t, url(ts.URL, false))
	want := traceDigest(keptTrace(t, s, key))

	healthy := mustGet(t, url(ts.URL, true))
	if traceDigest(keptTrace(t, s, key)) != want {
		t.Fatal("a healthy replay wrote into the kept trace")
	}
	if bytes.Equal(healthy, plain) {
		t.Fatal("the replayed answer is the synthesized one: replay did not run")
	}

	scenario := fault.Config{MTBF: 0.05, MTTR: 0.02, Seed: 9}
	for _, d := range []*Server{s, fresh} {
		if err := d.ArmFaults(scenario); err != nil {
			t.Fatal(err)
		}
	}
	faulted := mustGet(t, url(ts.URL, true))
	if traceDigest(keptTrace(t, s, key)) != want {
		t.Fatal("a faulted replay wrote into the kept trace")
	}
	if !bytes.Equal(faulted, mustGet(t, url(freshTS.URL, true))) {
		t.Fatal("the faulted replay differs from a fresh daemon's under the same scenario")
	}
	if bytes.Equal(faulted, healthy) {
		t.Fatal("the faulted replay answers the healthy bytes: the kept trace hid the faults")
	}
	tr, err := trace.ReadCSV(bytes.NewReader(faulted))
	if err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, r := range tr.Requests {
		retries += r.Retries
	}
	if retries == 0 {
		t.Fatal("the faulted replay retried nothing")
	}
	s.DisarmFaults()
	if again := mustGet(t, url(ts.URL, true)); !bytes.Equal(again, healthy) {
		t.Fatal("after disarming, the replay differs from the first healthy one")
	}
	if got := s.metrics.synthMemoHits.Value(); got != 3 {
		t.Fatalf("%d memo hits, want 3 (every query after the first)", got)
	}
}

// TestSynthesizeMemoKeepsFailure: a failed synthesis is kept like a trace —
// synthesis is a pure function of the generation and the key, so it would
// fail again — and answers every later ask without a second attempt.
func TestSynthesizeMemoKeepsFailure(t *testing.T) {
	ms := &modelSet{}
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		tr, err := ms.synthesized(synthKey{"kooza", 10, 1}, func() (*trace.Trace, error) {
			calls++
			return nil, boom
		})
		if tr != nil || !errors.Is(err, boom) {
			t.Fatalf("ask %d: (%v, %v), want the kept failure", i, tr, err)
		}
	}
	if calls != 1 || ms.synthKept != 10 {
		t.Fatalf("%d syntheses and %d requests of budget taken, want 1 and 10", calls, ms.synthKept)
	}
}

// BenchmarkSynthesizeRepeat prices /v1/synthesize?n=1000&format=binary
// through the handler, in process, on a daemon trained on an 8192-request
// chat window: "hit" asks for the same key every time and is answered from
// the kept trace, "miss" asks with a fresh seed every time and synthesizes.
func BenchmarkSynthesizeRepeat(b *testing.B) {
	ps, err := spec.Preset("chat")
	if err != nil {
		b.Fatal(err)
	}
	c, err := ps.Compile(spec.Options{Requests: 8192, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	window, err := c.Generate(0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(quietConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Ingest(window); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	ask := func(b *testing.B, seed int64) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/synthesize?n=1000&format=binary&seed=%d", seed), nil))
		if rw.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rw.Code, strings.TrimSpace(rw.Body.String()))
		}
	}
	b.Run("hit", func(b *testing.B) {
		ask(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ask(b, 1)
		}
	})
	b.Run("miss", func(b *testing.B) {
		seeds := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			ask(b, seeds.Int63())
		}
	})
}
