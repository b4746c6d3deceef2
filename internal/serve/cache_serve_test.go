package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/fault"
)

// cachedKeys is the keys of type K the served generation's cache keeps.
func cachedKeys[K any](s *Server) []K {
	c := &s.model.Load().cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for k := range c.entries {
		if k, ok := k.(K); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// cachedBytes is the bytes the served generation's cache keeps and its
// budget.
func cachedBytes(s *Server) (kept, budget int) {
	c := &s.model.Load().cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kept, c.budget
}

// setBudget sets the byte budget of the served generation's cache.
func setBudget(s *Server, budget int) {
	c := &s.model.Load().cache
	c.mu.Lock()
	c.budget = budget
	c.mu.Unlock()
}

// TestSynthesizeMemoRepeatAfterOneShots: twelve one-shot n=1000 queries
// cannot keep a key asked for again and again later in the generation out of
// the cache: it hits from its second ask on. A budget counted in requests and
// filled first come, first served kept it only if its n was at most 192.
func TestSynthesizeMemoRepeatAfterOneShots(t *testing.T) {
	s, ts := memoDaemon(t)
	for seed := int64(1); seed <= 12; seed++ {
		mustGet(t, synthURL(ts.URL, "kooza", 1000, seed, "binary", false))
	}
	if got := s.metrics.synthMemoHits.Value(); got != 0 {
		t.Fatalf("twelve one-shot queries counted %d memo hits", got)
	}
	first := mustGet(t, synthURL(ts.URL, "kooza", 1000, 99, "binary", false))
	for ask := 2; ask <= 6; ask++ {
		if body := mustGet(t, synthURL(ts.URL, "kooza", 1000, 99, "binary", false)); !bytes.Equal(body, first) {
			t.Fatalf("ask %d of the repeated key answered other bytes", ask)
		}
		if got := s.metrics.synthMemoHits.Value(); got != int64(ask-1) {
			t.Fatalf("ask %d of the repeated key: %d memo hits, want %d", ask, got, ask-1)
		}
	}
}

// TestSynthesizeMemoHitProtects: one-shot queries interleaved 1:1 with a
// repeated key, on a budget that holds the repeated key beside one one-shot
// answer and not beside two. Once hit, the repeated key is never evicted:
// every one-shot evicts the one before it instead. It holds at every n.
func TestSynthesizeMemoHitProtects(t *testing.T) {
	for _, n := range []int{1, 50, 400, 1000} {
		s, ts := memoDaemon(t)
		repeated := synthURL(ts.URL, "kooza", n, 1, "binary", false)
		oneShot := func(seed int64) { mustGet(t, synthURL(ts.URL, "kooza", n, seed, "binary", false)) }
		first := mustGet(t, repeated)
		asked, _ := cachedBytes(s)
		oneShot(2)
		both, _ := cachedBytes(s)
		// Room for the repeated key and one one-shot answer and a half, not
		// for two: the seeds' answers at one n differ by a few bytes.
		setBudget(s, both+(both-asked)/2)
		for seed := int64(3); seed < 23; seed++ {
			if body := mustGet(t, repeated); !bytes.Equal(body, first) {
				t.Fatalf("n=%d: the repeated key answered other bytes", n)
			}
			if got, want := s.metrics.synthMemoHits.Value(), seed-2; got != want {
				t.Fatalf("n=%d, before one-shot seed %d: %d memo hits, want %d", n, seed, got, want)
			}
			oneShot(seed)
			keys := cachedKeys[answerKey](s)
			key := func(seed int64) answerKey {
				return answerKey{synthQuery: synthQuery{model: "kooza", n: n, seed: seed, format: binaryFormat}}
			}
			if len(keys) != 2 || !slices.Contains(keys, key(1)) || !slices.Contains(keys, key(seed)) {
				t.Fatalf("n=%d, after one-shot seed %d: keys %v kept, want the repeated one and the last one-shot", n, seed, keys)
			}
			if kept, budget := cachedBytes(s); kept > budget {
				t.Fatalf("n=%d: %d bytes kept, past the %d-byte budget", n, kept, budget)
			}
		}
	}
}

// post posts a JSON body to url and returns status and body. Like get it
// reports through t.Error only, so it is safe on any goroutine.
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, b
}

// TestCacheBudgetRandomized: workers ask a daemon with a small cache for a
// random mix of syntheses — every model, several n and seeds, every format,
// replayed or not — and characterize and provision answers, while fault
// scenarios are re-armed between rounds. After every request the bytes kept
// are within the budget, and every answer is the first answer given for its
// query under the same scenario: keeping, evicting and refusing entries
// never changes an answer.
func TestCacheBudgetRandomized(t *testing.T) {
	s, ts := memoDaemon(t)
	const budget = 256 << 10
	setBudget(s, budget)
	scenarios := []*fault.Config{nil, {MTBF: 0.05, MTTR: 0.02, Seed: 9}, {MTBF: 0.2, MTTR: 0.05, Seed: 3}}
	models := []string{"kooza", "inbreadth", "indepth"}
	var mu sync.Mutex
	answers := map[string][]byte{}
	peak := 0
	// check records body as the answer to query under scenario, or wants
	// the one recorded, and wants the cache within its budget.
	check := func(scenario int, query string, code int, body []byte) {
		if code != http.StatusOK {
			t.Errorf("%s: status %d (%s)", query, code, body)
			return
		}
		if strings.Contains(query, "characterize") {
			body = withoutWallClock(t, body)
		}
		kept, budget := cachedBytes(s)
		mu.Lock()
		defer mu.Unlock()
		peak = max(peak, kept)
		if kept > budget {
			t.Errorf("after %s: %d bytes kept, past the %d-byte budget", query, kept, budget)
		}
		key := fmt.Sprintf("scenario %d: %s", scenario, query)
		if first, ok := answers[key]; !ok {
			answers[key] = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("%s: the answer differs from the first one", key)
		}
	}
	ask := func(rng *rand.Rand, scenario int) {
		switch rng.Intn(10) {
		case 0:
			query := fmt.Sprintf("/v1/characterize?n=%d&seed=%d", []int{40, 80}[rng.Intn(2)], 1+rng.Intn(2))
			code, body := get(t, ts.URL+query)
			check(scenario, query, code, body)
		case 1:
			body := fmt.Sprintf(`{"model":%q,"request":{"objective":{"target_seconds":0.5},"space":{"max_servers":%d},"validate_tasks":500,"validate_samples":500}}`,
				models[rng.Intn(3)], 4+rng.Intn(2))
			code, answer := post(t, ts.URL+"/v1/provision", body)
			check(scenario, body, code, answer)
		default:
			query := synthURL("", models[rng.Intn(3)], []int{1, 30, 200, 500}[rng.Intn(4)], int64(1+rng.Intn(4)),
				formatNames[rng.Intn(numFormats)], rng.Intn(2) == 0)
			code, body := get(t, ts.URL+query)
			check(scenario, query, code, body)
		}
	}
	const workers, rounds, perRound = 4, 6, 4
	for round := 0; round < rounds; round++ {
		scenario := round % len(scenarios)
		if scenarios[scenario] == nil {
			s.DisarmFaults()
		} else if err := s.ArmFaults(*scenarios[scenario]); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					ask(rng, scenario)
				}
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	if peak < budget/2 {
		t.Fatalf("the cache never held more than %d bytes of its %d: the budget was never tested", peak, budget)
	}
}
