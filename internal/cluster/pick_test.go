package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/trace"
)

// refuseRPCs is a RoundTripper that fails the test on any worker RPC: the
// states TestPickWorkerProperties builds must be judged without one.
type refuseRPCs struct{ t *testing.T }

func (r refuseRPCs) RoundTrip(req *http.Request) (*http.Response, error) {
	r.t.Errorf("unexpected worker RPC %s %s", req.Method, req.URL)
	return nil, errors.New("no RPCs here")
}

// queryKeys are the ring positions of 64 queries: seeds 1..32 of both
// routed endpoints.
func queryKeys() []uint64 {
	var keys []uint64
	for _, endpoint := range []string{"synthesize", "characterize"} {
		for seed := int64(1); seed <= 32; seed++ {
			keys = append(keys, Key(seed, endpoint))
		}
	}
	return keys
}

// TestPickWorkerProperties drives pickWorker over every state of a 1- to
// 5-worker cluster: each live/down mix times each generation lag in {0, 1,
// 2} per worker behind the coordinator's generation, 64 query keys each.
// Down workers sit inside their cooldown, so no state needs an RPC. The pick
// must be live and at lag 0 (-1 only when no live worker is), be the live
// ring owner whenever that owner is at lag 0, and be the same for the same
// state and key.
func TestPickWorkerProperties(t *testing.T) {
	const newest = 2
	keys := queryKeys()
	for n := 1; n <= 5; n++ {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://worker-%d.invalid", i)
		}
		c, err := NewCoordinator(CoordinatorConfig{
			Workers:    urls,
			Client:     &http.Client{Transport: refuseRPCs{t}},
			FaultClock: func() float64 { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		states := 1
		for i := 0; i < n; i++ {
			states *= 3
		}
		picks := make([]int, len(keys))
		c.routeMu.Lock()
		c.generation = newest
		for mask := 0; mask < 1<<n; mask++ {
			for lags := 0; lags < states; lags++ {
				fresh := -1 // a live worker at lag 0
				for i, m := range c.members {
					lag := int64(lags)
					for j := 0; j < i; j++ {
						lag /= 3
					}
					m.up, m.downUntil = mask>>i&1 == 1, math.Inf(1)
					m.generation = newest - lag%3
					if m.up && m.generation == newest {
						fresh = i
					}
				}
				down := func(w int) bool { return !c.members[w].up }
				state := fmt.Sprintf("%d workers, live mask %b, lags %d (base 3, worker 0 last)", n, mask, lags)
				for k, key := range keys {
					pick := c.pickWorker(key, 0)
					picks[k] = pick
					owner := c.ring.OwnerExcluding(key, down)
					switch {
					case pick < 0 && fresh >= 0:
						t.Fatalf("%s: key %d picks no worker with worker %d live at lag 0", state, k, fresh)
					case pick < 0:
						continue
					case pick >= n || !c.members[pick].up:
						t.Fatalf("%s: key %d picks worker %d, which is not live", state, k, pick)
					case c.members[pick].generation != newest:
						t.Fatalf("%s: key %d picks worker %d at lag %d, want lag 0", state, k, pick, newest-c.members[pick].generation)
					case c.members[owner].generation == newest && pick != owner:
						t.Fatalf("%s: key %d picks worker %d, the live ring owner %d is at lag 0", state, k, pick, owner)
					}
				}
				for k := len(keys) - 1; k >= 0; k-- {
					if again := c.pickWorker(keys[k], 0); again != picks[k] {
						t.Fatalf("%s: key %d picks worker %d, then worker %d", state, k, picks[k], again)
					}
				}
			}
		}
		c.routeMu.Unlock()
	}
}

// TestRejoinedWorkerWaitsForMerge: a worker that rejoins after its cooldown
// is reset and holds no generation the coordinator replicated, so no query
// is routed to it until the next merge installs the newest model there;
// after that merge it answers the keys it owns on the ring again.
func TestRejoinedWorkerWaitsForMerge(t *testing.T) {
	tr := testTrace(t, 900, 71)
	clock := &faultClock{}
	tc, fh := startFlakyCluster(t, 3, func(cfg *CoordinatorConfig) {
		cfg.Cooldown = 1
		cfg.FaultClock = clock.now
	})
	ingest := func(lo, hi int) {
		t.Helper()
		body := blockBody(t, tr.Requests[lo:hi], 30)
		if code, got := ingestRaw(t, tc.front.URL, trace.ContentTypeV2, body); code != 200 || got.Ingested != hi-lo {
			t.Fatalf("body %d..%d: status %d, %+v", lo, hi, code, got)
		}
	}
	// query asks every key of queryKeys once and fails unless each answer
	// is a 200 stamped with the coordinator's generation.
	query := func() {
		t.Helper()
		want := strconv.FormatInt(tc.coord.Generation(), 10)
		for _, endpoint := range []string{"synthesize", "characterize"} {
			for seed := 1; seed <= 32; seed++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/%s?n=20&seed=%d", tc.front.URL, endpoint, seed))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if got := resp.Header.Get(GenerationHeader); resp.StatusCode != http.StatusOK || got != want {
					t.Fatalf("%s seed %d: status %d, generation %q, want 200 and %q", endpoint, seed, resp.StatusCode, got, want)
				}
			}
		}
	}
	owned := 0
	for _, key := range queryKeys() {
		if tc.coord.ring.Owner(key) == 1 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("worker 1 owns none of the query keys; the test would not bite")
	}
	if !slices.Contains(owners(tc.coord.ring, bodyBlocks(t, blockBody(t, tr.Requests[300:600], 30))), 1) {
		t.Fatal("worker 1 owns no block of the body it fails; the test would not bite")
	}

	ingest(0, 300)
	mergedModel(t, tc.front.URL)
	fh.set(func(w int, r *http.Request) bool { return w == 1 && r.URL.Path == "/v1/ingest" })
	ingest(300, 600)
	fh.set(nil)
	mergedModel(t, tc.front.URL) // generation 2, worker 1 still inside its cooldown
	if stats := clusterStats(t, tc.front.URL); stats.Workers[1].Up || stats.Generation != 2 {
		t.Fatalf("worker 1 up = %v at generation %d, want down at generation 2", stats.Workers[1].Up, stats.Generation)
	}

	clock.set(2) // past the cooldown: the next look at membership probes worker 1
	routed := tc.coord.queryRouted.Value("1")
	query()
	stats := clusterStats(t, tc.front.URL)
	if !stats.Workers[1].Up || stats.Workers[1].Generation != 0 {
		t.Fatalf("worker 1 up = %v at generation %d, want rejoined at generation 0", stats.Workers[1].Up, stats.Workers[1].Generation)
	}
	if code, body := getBody(t, tc.workers[1].URL+"/v1/stats"); code != http.StatusOK || !strings.Contains(string(body), `"resets_total":1`) {
		t.Fatalf("worker 1 stats: status %d, %s, want one reset", code, body)
	}
	if got := tc.coord.queryRouted.Value("1"); got != routed {
		t.Fatalf("%d queries routed to the rejoined worker before a merge, want none", got-routed)
	}

	ingest(600, 900)
	query()
	if got := tc.coord.queryRouted.Value("1"); got != routed {
		t.Fatalf("%d queries routed to the rejoined worker before a merge, want none", got-routed)
	}

	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, modelBytes(t, DefaultModelConfig(), tr.Requests)) {
		t.Fatal("model after the rejoin differs from single-node training")
	}
	query()
	if got := tc.coord.queryRouted.Value("1") - routed; got != int64(owned) {
		t.Fatalf("%d queries routed to worker 1 after the merge, want the %d keys it owns", got, owned)
	}
}

// TestFailedProxyMarksWorkerDown: a query whose pick is unreachable is
// answered by the coordinator and the pick is marked down, as a failed
// delivery would mark it, so the queries after it do not dial it again
// before its cooldown. It used to stay up: with worker 0 of 2 failing
// every RPC after a merge and no ingest, 40 queries made 24 failed proxies.
func TestFailedProxyMarksWorkerDown(t *testing.T) {
	tr := testTrace(t, 600, 83)
	tc, fh := startFlakyCluster(t, 2, nil)
	if code, got := ingestRaw(t, tc.front.URL, trace.ContentTypeV2, blockBody(t, tr.Requests, 30)); code != 200 || got.Routed != 600 {
		t.Fatalf("ingest: status %d, %+v", code, got)
	}
	want := mergedModel(t, tc.front.URL)
	owned := 0
	for _, key := range queryKeys() {
		if tc.coord.ring.Owner(key) == 0 {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("worker 0 owns none of the query keys; the test would not bite")
	}

	var mu sync.Mutex
	proxies := 0
	fh.set(func(w int, r *http.Request) bool {
		if w == 0 && r.Method == http.MethodGet && r.URL.Path != "/v1/model" {
			mu.Lock()
			proxies++
			mu.Unlock()
		}
		return w == 0
	})
	for _, endpoint := range []string{"synthesize", "characterize"} {
		for seed := 1; seed <= 32; seed++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/%s?n=20&seed=%d", tc.front.URL, endpoint, seed))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get(GenerationHeader); resp.StatusCode != http.StatusOK || got != "1" {
				t.Fatalf("%s seed %d: status %d, generation %q, want 200 and 1", endpoint, seed, resp.StatusCode, got)
			}
		}
	}
	if proxies != 1 {
		t.Errorf("%d failed proxies to worker 0 inside one cooldown, want 1", proxies)
	}
	if stats := clusterStats(t, tc.front.URL); stats.Workers[0].Up || !stats.Workers[1].Up {
		t.Errorf("up = %v %v, want worker 0 down and worker 1 up", stats.Workers[0].Up, stats.Workers[1].Up)
	}
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want) || !bytes.Equal(got, modelBytes(t, DefaultModelConfig(), tr.Requests)) {
		t.Fatal("model after the failed proxy differs from single-node training")
	}
}

// TestRejoinedReplicaNeverAnswers: a rejoined worker still holds the replica
// it had before it died, and when it is the only live worker the coordinator
// answers from its own merged model instead. It used to proxy to it: with
// worker 1 killed, generation 2 merged to worker 0 alone, and worker 1
// rejoining as worker 0 died, a synthesize answered generation 1 while the
// coordinator held generation 2.
func TestRejoinedReplicaNeverAnswers(t *testing.T) {
	tr := testTrace(t, 900, 89)
	clock := &faultClock{}
	tc, fh := startFlakyCluster(t, 2, func(cfg *CoordinatorConfig) {
		cfg.Cooldown = 1
		cfg.FaultClock = clock.now
	})
	ingest := func(lo, hi int) {
		t.Helper()
		if code, got := ingestRaw(t, tc.front.URL, trace.ContentTypeV2, blockBody(t, tr.Requests[lo:hi], 30)); code != 200 || got.Ingested != hi-lo {
			t.Fatalf("body %d..%d: status %d, %+v", lo, hi, code, got)
		}
	}
	ingest(0, 300)
	mergedModel(t, tc.front.URL) // generation 1 on both workers
	fh.set(func(w int, r *http.Request) bool { return w == 1 && r.URL.Path == "/v1/ingest" })
	ingest(300, 600)
	fh.set(nil)
	mergedModel(t, tc.front.URL) // generation 2 on worker 0 alone
	clock.set(2)                 // past worker 1's cooldown
	fh.set(func(w int, r *http.Request) bool { return w == 0 })
	ingest(600, 900) // worker 0 dies on it and worker 1 rejoins
	stats := clusterStats(t, tc.front.URL)
	if stats.Workers[0].Up || !stats.Workers[1].Up || stats.Workers[1].Generation != 0 || stats.Generation != 2 {
		t.Fatalf("up = %v %v, worker 1 at generation %d, coordinator at %d; want only the rejoined worker 1 up, at 0, and the coordinator at 2",
			stats.Workers[0].Up, stats.Workers[1].Up, stats.Workers[1].Generation, stats.Generation)
	}
	if resp, err := http.Get(tc.workers[1].URL + "/v1/characterize"); err != nil || resp.Header.Get(GenerationHeader) != "1" {
		t.Fatalf("worker 1 does not answer from its pre-death replica of generation 1 (%v); the test would not bite", err)
	} else {
		resp.Body.Close()
	}

	routed := tc.coord.queryRouted.Value("1")
	for _, endpoint := range []string{"synthesize", "characterize"} {
		for seed := 1; seed <= 32; seed++ {
			resp, err := http.Get(fmt.Sprintf("%s/v1/%s?n=20&seed=%d", tc.front.URL, endpoint, seed))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get(GenerationHeader); resp.StatusCode != http.StatusOK || got != "2" {
				t.Fatalf("%s seed %d: status %d, generation %q, want 200 and the coordinator's 2", endpoint, seed, resp.StatusCode, got)
			}
		}
	}
	if got := tc.coord.queryRouted.Value("1"); got != routed {
		t.Errorf("%d queries routed to the rejoined worker, want none", got-routed)
	}
}
