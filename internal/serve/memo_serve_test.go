package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/optimize"
)

// get fetches one URL and returns status and body. It reports through
// t.Error only, so it is safe on any goroutine.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, body
}

// TestTwinsCompiledOncePerGeneration: however many what-if and provisioning
// requests race on one model generation, each (platform, model) twin is
// compiled once, and a retrain — a new generation — compiles them afresh.
func TestTwinsCompiledOncePerGeneration(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	// Three models on the daemon's own hardware (what-if), kooza on every
	// platform of the default search space (provision).
	want := int64(3 + len(optimize.SpaceDefaults(optimize.Space{}).Platforms))

	hammer := func() {
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				url, body := ts.URL+"/v1/provision", provisionBody
				if i%4 != 3 {
					model := []string{"kooza", "inbreadth", "indepth"}[i%4]
					url, body = ts.URL+"/v1/whatif", fmt.Sprintf(`{"model":%q,"query":{"load_factor":1.5}}`, model)
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d (%s)", url, resp.StatusCode, b)
				}
			}(i)
		}
		wg.Wait()
	}

	hammer()
	if got := s.metrics.twinCompiles.Value(); got != want {
		t.Fatalf("32 concurrent requests compiled %d twins, want %d (one per platform and model)", got, want)
	}
	hammer()
	if got := s.metrics.twinCompiles.Value(); got != want {
		t.Fatalf("a second round on the same generation compiled again: %d twins, want still %d", got, want)
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	hammer()
	if got := s.metrics.twinCompiles.Value(); got != 2*want {
		t.Fatalf("after a retrain %d twins were compiled in all, want %d (a fresh set for the new generation)", got, 2*want)
	}
	// An unknown model is refused without becoming a table entry.
	resp, _ := postWhatIf(t, ts, `{"model":"bogus","query":{}}`)
	if n := len(cachedKeys[twinKey](s)); resp.StatusCode != http.StatusBadRequest || int64(n) != want {
		t.Fatalf("bogus model: status %d, %d table entries; want 400 and %d", resp.StatusCode, n, want)
	}
}

// TestCharacterizeMemo: /v1/characterize repeats its answer byte for byte
// while nothing it depends on changed, and evaluates again after each thing
// that can change it — an ingest, a retrain, arming a fault scenario,
// another n, another seed. Disarming the scenario brings back the key of the
// healthy answer before it, which the generation still keeps.
func TestCharacterizeMemo(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	query := "n=150&seed=3"
	faults := func(method, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/v1/faults", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /v1/faults = %d (%s)", method, resp.StatusCode, b)
		}
	}
	steps := []struct {
		name   string
		change func()
		kept   string // the earlier step whose answer the first request gets
	}{
		{"first request", func() {}, ""},
		{"ingest", func() {
			// Below RetrainMin: the window moves, the generation stays.
			if retrained, _, err := s.Ingest(gfsTrace(t, 10, 2)); err != nil || retrained {
				t.Fatalf("ingest: retrained=%t err=%v", retrained, err)
			}
		}, ""},
		{"retrain", func() {
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
		}, ""},
		{"faults armed", func() { faults(http.MethodPost, `{"mtbf": 2, "mttr": 0.5, "rack_size": 2, "seed": 9}`) }, ""},
		{"faults disarmed", func() { faults(http.MethodDelete, "") }, "retrain"},
		{"another n", func() { query = "n=151&seed=3" }, ""},
		{"another seed", func() { query = "n=151&seed=4" }, ""},
	}
	ask := func() []byte {
		t.Helper()
		code, body := get(t, ts.URL+"/v1/characterize?"+query)
		if code != http.StatusOK {
			t.Fatalf("characterize?%s = %d (%s)", query, code, body)
		}
		return body
	}
	answers := map[string][]byte{}
	for _, step := range steps {
		step.change()
		hits := s.metrics.charMemoHits.Value()
		first := ask()
		answers[step.name] = first
		if step.kept != "" {
			if got := s.metrics.charMemoHits.Value(); got != hits+1 || !bytes.Equal(first, answers[step.kept]) {
				t.Fatalf("%s: %d memo hits, want 1 answering the %s step's bytes", step.name, got-hits, step.kept)
			}
			hits++
		} else if got := s.metrics.charMemoHits.Value(); got != hits {
			t.Fatalf("%s: answered from the memo, want a fresh evaluation", step.name)
		}
		again := ask()
		if got := s.metrics.charMemoHits.Value(); got != hits+1 {
			t.Fatalf("%s: the repeat was evaluated again (memo hits %d, want %d)", step.name, got, hits+1)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: the repeat differs from the answer it repeats:\n%s\n%s", step.name, first, again)
		}
	}
}

// TestCharacterizeMemoKeepsBytes: a characterize hit answers the very bytes
// the evaluation encoded, without encoding the scorecard again.
func TestCharacterizeMemoKeepsBytes(t *testing.T) {
	s := newTestServer(t, quietConfig())
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	first := s.characterize(nil, 150, 3)
	again := s.characterize(nil, 150, 3)
	if first.code != http.StatusOK || len(first.body) == 0 {
		t.Fatalf("characterize = %d (%s)", first.code, first.body)
	}
	if &again.body[0] != &first.body[0] || len(again.body) != len(first.body) {
		t.Fatal("a characterize hit answered a new encoding of the scorecard, not the kept bytes")
	}
}

// TestCharacterizeSingleFlight: identical requests arriving together wait
// for one evaluation instead of each running their own.
func TestCharacterizeSingleFlight(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, ts.URL+"/v1/characterize?n=150&seed=5")
			if code != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := s.metrics.charMemoHits.Value(); got != clients-1 {
		t.Fatalf("%d identical concurrent requests: %d memo hits, want %d (one evaluation)", clients, got, clients-1)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("client %d got a different answer from client 0", i)
		}
	}
}

// TestProvisionMemo: POST /v1/provision searches once per input. An
// identical request is answered from the memo with the same bytes and no
// search, while nothing it depends on changed; an ingest, a retrain,
// another model and another request each search again. The search runs on
// healthy hardware, so arming and disarming a fault scenario each answer
// the retrain step's bytes with no search. A refused request is an answer
// too, kept like a plan.
func TestProvisionMemo(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	body, wantCode := provisionBody, http.StatusOK
	faults := func(method, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/v1/faults", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /v1/faults = %d (%s)", method, resp.StatusCode, b)
		}
	}
	steps := []struct {
		name   string
		change func()
		search bool   // whether the first request runs a search to the end
		kept   string // the earlier step whose answer the first request gets
	}{
		{"first request", func() {}, true, ""},
		{"ingest", func() {
			if retrained, _, err := s.Ingest(gfsTrace(t, 10, 2)); err != nil || retrained {
				t.Fatalf("ingest: retrained=%t err=%v", retrained, err)
			}
		}, true, ""},
		{"retrain", func() {
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
		}, true, ""},
		{"faults armed", func() { faults(http.MethodPost, `{"mtbf": 2, "mttr": 0.5, "rack_size": 2, "seed": 9}`) }, false, "retrain"},
		{"faults disarmed", func() { faults(http.MethodDelete, "") }, false, "retrain"},
		{"another model", func() {
			body = `{"model":"indepth","request":{"objective":{"target_seconds":0.5},"space":{"max_servers":8},"validate_tasks":2000,"validate_samples":2000}}`
		}, true, ""},
		{"another request", func() {
			body = `{"request":{"objective":{"target_seconds":0.5},"space":{"max_servers":9},"validate_tasks":2000,"validate_samples":2000}}`
		}, true, ""},
		{"refused request", func() {
			body, wantCode = `{"request":{"objective":{"target_seconds":1},"space":{"platforms":["vax"]}}}`, http.StatusBadRequest
		}, false, ""},
	}
	ask := func() []byte {
		t.Helper()
		resp, b := postProvision(t, ts, body)
		if resp.StatusCode != wantCode {
			t.Fatalf("provision %s = %d (%s), want %d", body, resp.StatusCode, b, wantCode)
		}
		return b
	}
	answers := map[string][]byte{}
	for _, step := range steps {
		step.change()
		hits, searches := s.metrics.provMemoHits.Value(), s.metrics.provisions.Value()
		first := ask()
		answers[step.name] = first
		if step.kept != "" {
			if got := s.metrics.provMemoHits.Value(); got != hits+1 || !bytes.Equal(first, answers[step.kept]) {
				t.Fatalf("%s: %d memo hits, want 1 answering the %s step's bytes", step.name, got-hits, step.kept)
			}
			hits++
		} else if got := s.metrics.provMemoHits.Value(); got != hits {
			t.Fatalf("%s: answered from the memo, want a fresh search", step.name)
		}
		want := searches
		if step.search {
			want++
		}
		if got := s.metrics.provisions.Value(); got != want {
			t.Fatalf("%s: %d searches completed, want %d", step.name, got-searches, want-searches)
		}
		searches = s.metrics.provisions.Value()
		again := ask()
		if got := s.metrics.provMemoHits.Value(); got != hits+1 {
			t.Fatalf("%s: the repeat was searched again (memo hits %d, want %d)", step.name, got, hits+1)
		}
		if got := s.metrics.provisions.Value(); got != searches {
			t.Fatalf("%s: the repeat ran a search", step.name)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: the repeat differs from the answer it repeats:\n%s\n%s", step.name, first, again)
		}
	}
}

// TestPooledBodiesNotShared: response bodies come from a pool, so
// concurrent answers of different sizes and formats must each arrive whole
// and equal to the answer the same query gets on its own.
func TestPooledBodiesNotShared(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i, format := range []string{"csv", "json", "binary", "csv", "json", "binary"} {
		urls = append(urls, fmt.Sprintf("%s/v1/synthesize?n=%d&seed=%d&format=%s", ts.URL, 20+150*i, i+1, format))
	}
	want := make([][]byte, len(urls))
	for i, u := range urls {
		code, body := get(t, u)
		if code != http.StatusOK {
			t.Fatalf("%s = %d (%s)", u, code, body)
		}
		want[i] = body
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		for i, u := range urls {
			wg.Add(1)
			go func(i int, u string) {
				defer wg.Done()
				if code, body := get(t, u); code != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("%s under concurrency: status %d, body differs from the answer given alone", u, code)
				}
			}(i, u)
		}
	}
	wg.Wait()
}
