package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// kept is how many synthesize answers the served generation keeps.
func kept(s *Server) int { return len(cachedKeys[answerKey](s)) }

// keptAnswer is the body the served generation keeps for key; the test fails
// if the generation keeps none, or keeps a failure.
func keptAnswer(t *testing.T, s *Server, key answerKey) []byte {
	t.Helper()
	c := &s.model.Load().cache
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		t.Fatalf("no answer kept for %+v", key)
	}
	a := e.val.(answer)
	if a.code != http.StatusOK {
		t.Fatalf("the kept answer of %+v is a failure: %s", key, a.body)
	}
	return a.body
}

// TestSynthesizeMemo: each query of a generation — model, n, seed, format
// and replay — is one answer. Its first ask computes and keeps it, and every
// later ask is a hit; each answers the bytes a fresh daemon answers. Another
// model, n, seed, format or replay flag is an answer of its own, and a
// retrain starts afresh.
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
			t.Fatalf("%+v: %d answers kept, want %d", q, got, wantKept)
		}
		if want := mustGet(t, synthURL(fresh.URL, q.model, q.n, q.seed, q.format, q.replay)); !bytes.Equal(body, want) {
			t.Fatalf("%+v: the answer differs from a fresh daemon's", q)
		}
	}

	first := query{"kooza", 200, 3, "csv", false}
	for _, format := range []string{"csv", "json", "binary"} {
		for _, replay := range []bool{false, true} {
			q := first
			q.format, q.replay = format, replay
			ask(q, false)
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
		t.Fatalf("a fresh generation keeps %d answers, want none", got)
	}
	ask(first, false)
	ask(first, true)
}

// TestSynthesizeMemoSingleFlight: identical first asks arriving together
// wait for one computation of their answer, and all get the same bytes.
// Sixteen clients asking four queries compute four answers, each encoded
// once.
func TestSynthesizeMemoSingleFlight(t *testing.T) {
	s, ts := memoDaemon(t)
	encodes := countEncodes(s)
	const clients, queries = 16, 4
	formats := []int{csvFormat, jsonFormat, binaryFormat, csvFormat}
	query := func(i int) synthQuery {
		return synthQuery{model: "inbreadth", n: 500, seed: 5, format: formats[i%queries], replay: i%queries == 3}
	}
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := query(i)
			code, body := get(t, synthURL(ts.URL, q.model, q.n, q.seed, formatNames[q.format], q.replay))
			if code != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := s.metrics.synthMemoHits.Value(); got != clients-queries {
		t.Fatalf("%d concurrent first asks of %d answers: %d memo hits, want %d", clients, queries, got, clients-queries)
	}
	if got := kept(s); got != queries {
		t.Fatalf("%d answers kept, want %d", got, queries)
	}
	for i := 0; i < queries; i++ {
		if got := encodes(query(i)); got != 1 {
			t.Fatalf("%+v: encoded %d times, want once", query(i), got)
		}
	}
	for i := queries; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[i%queries]) {
			t.Fatalf("client %d got a different answer from client %d", i, i%queries)
		}
	}
}

// TestSynthesizeMemoBudget: answers are kept while their bytes fit the
// budget. A new answer evicts the oldest one never asked for again; one asked
// for again is kept. An answer too large to keep beside those is computed,
// answers the same bytes as a fresh daemon, evicts nothing and keeps nothing.
func TestSynthesizeMemoBudget(t *testing.T) {
	s, ts := memoDaemon(t)
	_, fresh := memoDaemon(t)
	ask := func(n int, seed int64) {
		t.Helper()
		body := mustGet(t, synthURL(ts.URL, "kooza", n, seed, "binary", false))
		if want := mustGet(t, synthURL(fresh.URL, "kooza", n, seed, "binary", false)); !bytes.Equal(body, want) {
			t.Fatalf("n=%d seed=%d: the answer differs from a fresh daemon's", n, seed)
		}
	}
	keys := func(want ...int64) {
		t.Helper()
		var seeds []int64
		for _, k := range cachedKeys[answerKey](s) {
			seeds = append(seeds, k.seed)
		}
		slices.Sort(seeds)
		if !slices.Equal(seeds, want) {
			t.Fatalf("answers of seeds %v kept, want %v", seeds, want)
		}
	}
	ask(200, 1)
	ask(200, 2)
	full, _ := cachedBytes(s)
	setBudget(s, full)
	keys(1, 2)
	ask(1, 3)
	keys(2, 3)
	ask(200, 2)
	hits := s.metrics.synthMemoHits.Value()
	if hits != 1 {
		t.Fatalf("%d memo hits, want 1", hits)
	}
	ask(200, 1)
	keys(1, 2)
	for i := 0; i < 2; i++ {
		ask(400, 4)
		keys(1, 2)
	}
	if got := s.metrics.synthMemoHits.Value(); got != hits {
		t.Fatalf("answers not kept counted %d memo hits", got-hits)
	}
	if kept, budget := cachedBytes(s); kept > budget {
		t.Fatalf("%d bytes kept, past the %d-byte budget", kept, budget)
	}
}

// TestSynthesizeMemoReadOnly: a replayed answer — healthy or under an armed
// fault scenario — leaves the kept unreplayed answer of its key bit for bit
// as it was, and a faulted replay still follows the faults: it answers what
// a fresh daemon with the same scenario answers, retries included.
func TestSynthesizeMemoReadOnly(t *testing.T) {
	s, ts := memoDaemon(t)
	fresh, freshTS := memoDaemon(t)
	q := synthQuery{model: "kooza", n: 400, seed: 7, format: csvFormat}
	url := func(base string, replay bool) string {
		return synthURL(base, q.model, q.n, q.seed, "csv", replay)
	}
	plain := mustGet(t, url(ts.URL, false))
	want := sha256.Sum256(keptAnswer(t, s, answerKey{synthQuery: q}))

	healthy := mustGet(t, url(ts.URL, true))
	if sha256.Sum256(keptAnswer(t, s, answerKey{synthQuery: q})) != want {
		t.Fatal("a healthy replay wrote into the kept answer")
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
	if sha256.Sum256(keptAnswer(t, s, answerKey{synthQuery: q})) != want {
		t.Fatal("a faulted replay wrote into the kept answer")
	}
	if !bytes.Equal(faulted, mustGet(t, url(freshTS.URL, true))) {
		t.Fatal("the faulted replay differs from a fresh daemon's under the same scenario")
	}
	if bytes.Equal(faulted, healthy) {
		t.Fatal("the faulted replay answers the healthy bytes: the kept answer hid the faults")
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
	if again := mustGet(t, url(ts.URL, false)); !bytes.Equal(again, plain) {
		t.Fatal("after the replays, the unreplayed answer differs from the first one")
	}
	if got := s.metrics.synthMemoHits.Value(); got != 2 {
		t.Fatalf("%d memo hits, want 2 (the healthy replay and the unreplayed answer, asked again)", got)
	}
}

// TestSynthesizeMemoKeepsFailure: a failed answer is kept like any other —
// synthesis is a pure function of the generation and the query, so it would
// fail again — and answers every later ask without a second attempt.
func TestSynthesizeMemoKeepsFailure(t *testing.T) {
	c := &genCache{budget: cacheBudget}
	failed := errorAnswer(http.StatusInternalServerError, "synthesize: boom")
	key := answerKey{synthQuery: synthQuery{model: "kooza", n: 10, seed: 1}}
	calls := 0
	for i := 0; i < 3; i++ {
		a, hit := c.answer(key, func() (answer, bool) {
			calls++
			return failed, true
		})
		if !bytes.Equal(a.body, failed.body) || hit != (i > 0) {
			t.Fatalf("ask %d: (%d %s, hit %t), want the kept failure", i, a.code, a.body, hit)
		}
	}
	if want := len(failed.body) + entryBytes; calls != 1 || c.kept != want {
		t.Fatalf("%d syntheses and %d bytes kept, want 1 and %d", calls, c.kept, want)
	}
}

// countEncodes arms s to count, per query, the answers it encodes.
func countEncodes(s *Server) func(synthQuery) int {
	var mu sync.Mutex
	counts := map[synthQuery]int{}
	s.onEncode = func(q synthQuery) {
		mu.Lock()
		counts[q]++
		mu.Unlock()
	}
	return func(q synthQuery) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[q]
	}
}

// TestSynthesizeMemoKeepsTraceV2: for every preset and model at two seeds,
// the format=binary answer a generation keeps decodes to exactly the trace
// the model synthesizes.
func TestSynthesizeMemoKeepsTraceV2(t *testing.T) {
	for _, preset := range spec.Names() {
		s := newTestServer(t, quietConfig())
		if _, _, err := s.Ingest(presetWindow(t, preset, 2048, 1)); err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		ts := httptest.NewServer(s.Handler())
		for _, model := range []string{"kooza", "inbreadth", "indepth"} {
			for _, seed := range []int64{1, 2} {
				q := synthQuery{model: model, n: 300, seed: seed, format: binaryFormat}
				mustGet(t, synthURL(ts.URL, model, q.n, seed, "binary", false))
				synthesize, err := s.synthesizer(s.model.Load(), nil, model)
				if err != nil {
					t.Fatal(err)
				}
				want, err := synthesize(q.n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				got, err := trace.ReadBinary(bytes.NewReader(keptAnswer(t, s, answerKey{synthQuery: q})))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: the kept bytes decode to another trace than the synthesized one", preset, q)
				}
			}
		}
		ts.Close()
	}
}

// TestSynthesizeMemoEncodesOnce: each answer of a key — every format,
// replayed or not — is encoded once, by the first ask, however often and in
// whatever order it is asked for after. Every answer is a fresh daemon's.
func TestSynthesizeMemoEncodesOnce(t *testing.T) {
	s, ts := memoDaemon(t)
	_, fresh := memoDaemon(t)
	encodes := countEncodes(s)
	var queries []synthQuery
	for _, replay := range []bool{true, false} {
		for _, format := range []int{jsonFormat, binaryFormat, csvFormat} {
			queries = append(queries, synthQuery{model: "indepth", n: 250, seed: 6, format: format, replay: replay})
		}
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			url := func(base string) string {
				return synthURL(base, q.model, q.n, q.seed, formatNames[q.format], q.replay)
			}
			if !bytes.Equal(mustGet(t, url(ts.URL)), mustGet(t, url(fresh.URL))) {
				t.Fatalf("round %d, %+v: the answer differs from a fresh daemon's", round, q)
			}
			if got := encodes(q); got != 1 {
				t.Fatalf("round %d, %+v: encoded %d times, want once", round, q, got)
			}
		}
	}
	if n := kept(s); n != len(queries) {
		t.Fatalf("%d answers kept, want %d", n, len(queries))
	}
	if got, want := s.metrics.synthMemoHits.Value(), int64(2*len(queries)); got != want {
		t.Fatalf("%d memo hits, want %d", got, want)
	}
}

// TestSynthesizeMemoEncodeSingleFlight: 16 first asks for one CSV answer
// arriving together encode it once, and all get its bytes.
func TestSynthesizeMemoEncodeSingleFlight(t *testing.T) {
	s, ts := memoDaemon(t)
	encodes := countEncodes(s)
	q := synthQuery{model: "kooza", n: 500, seed: 4, format: csvFormat}
	url := synthURL(ts.URL, q.model, q.n, q.seed, "csv", false)
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, url)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := encodes(q); got != 1 {
		t.Fatalf("%d concurrent first asks encoded the CSV answer %d times, want once", clients, got)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got a different answer from client 0", i)
		}
	}
}

// TestSynthesizeMemoReplayScenarios: arming 50 fault scenarios in turn,
// each replayed answer is a fresh daemon's under the same scenario, a second
// ask under a scenario answers its bytes, and re-arming never takes the
// bytes the cache keeps past its budget. With the whole budget, each
// scenario's answer is encoded once; with a budget a quarter of what the 50
// scenarios take, the cache evicts and refuses answers, and every answer is
// still a fresh daemon's.
func TestSynthesizeMemoReplayScenarios(t *testing.T) {
	key := synthQuery{model: "kooza", n: 120, seed: 2}
	formats := []string{"csv", "binary"}
	run := func(budget int) (keptAtEnd int) {
		s, ts := memoDaemon(t)
		fresh, freshTS := memoDaemon(t)
		setBudget(s, budget)
		encodes := countEncodes(s)
		withinBudget := func(when string) {
			t.Helper()
			if kept, budget := cachedBytes(s); kept > budget {
				t.Fatalf("%s: %d bytes kept, past the %d-byte budget", when, kept, budget)
			}
		}
		for _, format := range formats {
			mustGet(t, synthURL(ts.URL, key.model, key.n, key.seed, format, false))
		}
		var scenario0 [][]byte
		for i := 0; i < 50; i++ {
			scenario := fault.Config{MTBF: 0.05 + 0.01*float64(i%5), MTTR: 0.02, Seed: int64(i + 1)}
			for _, d := range []*Server{s, fresh} {
				if err := d.ArmFaults(scenario); err != nil {
					t.Fatal(err)
				}
			}
			for f, format := range formats {
				url := func(base string) string { return synthURL(base, key.model, key.n, key.seed, format, true) }
				got := mustGet(t, url(ts.URL))
				withinBudget(fmt.Sprintf("scenario %d, %s", i, format))
				if !bytes.Equal(got, mustGet(t, url(freshTS.URL))) {
					t.Fatalf("scenario %d, %s: the faulted answer differs from a fresh daemon's", i, format)
				}
				if !bytes.Equal(got, mustGet(t, url(ts.URL))) {
					t.Fatalf("scenario %d, %s: a second ask answered other bytes", i, format)
				}
				withinBudget(fmt.Sprintf("scenario %d, %s again", i, format))
				if i == 0 {
					scenario0 = append(scenario0, got)
				} else if i%5 == 0 && bytes.Equal(got, scenario0[f]) {
					t.Fatalf("scenario %d, %s: answered scenario 0's bytes", i, format)
				}
			}
			underArmed := 0
			for _, k := range cachedKeys[answerKey](s) {
				if k.replay && k.faults == s.faults.Load() {
					underArmed++
				}
			}
			if budget == cacheBudget && underArmed != len(formats) {
				t.Fatalf("scenario %d: %d replayed answers kept under the armed scenario, want %d", i, underArmed, len(formats))
			}
		}
		for f := range formats {
			q := key
			q.format, q.replay = []int{csvFormat, binaryFormat}[f], true
			got := encodes(q)
			if budget == cacheBudget && got != 50 {
				t.Fatalf("%s: %d replayed answers encoded across 50 scenarios, want 50", formats[f], got)
			}
			if got < 50 || got > 100 {
				t.Fatalf("%s: %d replayed answers encoded across 50 scenarios asked twice each, want 50 to 100", formats[f], got)
			}
		}
		keptAtEnd, _ = cachedBytes(s)
		return keptAtEnd
	}
	all := run(cacheBudget)
	run(all / 4)
}

// overBudgetAnswers are the sha256 digests of memoDaemon's answers to a
// KOOZA query for 8193 requests, seed 1, as daemons answered them before the
// memo kept anything but traces.
var overBudgetAnswers = []struct {
	format string
	replay bool
	digest string
}{
	{"csv", false, "2769dfbed9b0faf26ff22a70d0108724723de6ba1ebb45a22b62236ac028c0e5"},
	{"csv", true, "de4d77a72e67a73001d30895e8a672a568c211c2992e853e946af0eb7ed800f6"},
	{"json", false, "159f45ddb162c792b784162cedc0950640602f50f7406e08a7acf9e2885b975b"},
	{"json", true, "bc8a1473f32b102b70907fbb9e0ccf5d2f5b37dbcc27294ca95cd91e8337ba55"},
	{"binary", false, "5feaab85612deebcb33647bf6d112d983d46bca1eb31436a02fd0ebe81e2f51f"},
	{"binary", true, "d66e50dfe7a978e5257d201e695c8cbe8b71156641f20bbd59888d2c6df89daf"},
}

// TestSynthesizeMemoOverBudgetBytes: an answer that does not fit the budget
// is computed for its ask, answers the bytes it always answered and is not
// kept, so each ask of it is a miss.
func TestSynthesizeMemoOverBudgetBytes(t *testing.T) {
	s, ts := memoDaemon(t)
	// Smaller than the trace-v2 bytes of any 8193 requests.
	setBudget(s, 64<<10)
	encodes := 0
	s.onEncode = func(synthQuery) { encodes++ }
	for _, a := range overBudgetAnswers {
		body := mustGet(t, synthURL(ts.URL, "kooza", 8193, 1, a.format, a.replay))
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != a.digest {
			t.Fatalf("%s replay=%t: answer digest %s, want %s", a.format, a.replay, got, a.digest)
		}
	}
	mustGet(t, synthURL(ts.URL, "kooza", 8193, 1, "binary", false))
	if got, hits := kept(s), s.metrics.synthMemoHits.Value(); got != 0 || hits != 0 || encodes != len(overBudgetAnswers)+1 {
		t.Fatalf("over-budget asks kept %d answers, hit %d times and encoded %d answers; want none, none and %d",
			got, hits, encodes, len(overBudgetAnswers)+1)
	}
}

// TestSynthesizeExpiredDeadline: a job that finds its deadline passed once
// its answer is computed answers 504 and keeps no answer — it used to skip
// the replay and answer the unreplayed trace as a 200.
func TestSynthesizeExpiredDeadline(t *testing.T) {
	s, _ := memoDaemon(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := synthQuery{model: "kooza", n: 200, seed: 3, format: csvFormat, replay: true}
	if a, ok := s.synthesize(ctx, nil, s.model.Load(), s.replayPlatform(), q); ok {
		t.Fatalf("a job past its deadline answered %d, want no answer (504)", a.code)
	}
	if n := kept(s); n != 0 {
		t.Fatalf("a job past its deadline kept %d answers, want none", n)
	}
	rec := httptest.NewRecorder()
	s.enqueue(rec, httptest.NewRequest(http.MethodGet, "/v1/synthesize", nil), func(context.Context) (answer, bool) {
		return errorAnswer(http.StatusInternalServerError, "unused"), false
	})
	if rec.Code != http.StatusGatewayTimeout || s.metrics.deadline.Value() != 1 {
		t.Fatalf("a job answering false: status %d, %d deadlines counted; want 504 and 1", rec.Code, s.metrics.deadline.Value())
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a benchmark counts what the handler allocates and not a copy of
// its answer.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// BenchmarkSynthesizeRepeat prices /v1/synthesize?n=1000 through the
// handler, in process, on a daemon trained on an 8192-request chat window.
// Each "hit" case asks for the same query every time and is answered from
// the bytes the generation keeps; "miss" asks with a fresh seed every time,
// so it synthesizes and encodes, and its answers, never asked for again,
// evict each other once the budget is full. B/op of a hit does not grow
// with n: the answer is not copied.
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
	ask := func(b *testing.B, query string, seed int64) {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/synthesize?n=1000&%s&seed=%d", query, seed), nil))
		if w.code != http.StatusOK {
			b.Fatalf("%s: status %d", query, w.code)
		}
	}
	for _, query := range []string{"format=csv", "format=json", "format=binary", "format=binary&replay=1"} {
		b.Run("hit/"+query, func(b *testing.B) {
			ask(b, query, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask(b, query, 1)
			}
		})
	}
	b.Run("miss/format=binary", func(b *testing.B) {
		seeds := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ask(b, "format=binary", seeds.Int63())
		}
	})
}
