package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
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
// 2} per worker, 64 query keys each. Down workers sit inside their cooldown,
// so no state needs an RPC. The pick must be live (-1 only when no worker
// is), hold the least lag of the live workers, be the live ring owner
// whenever that owner holds the least lag, and be the same for the same
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
				leastLag := int64(math.MaxInt64)
				for i, m := range c.members {
					lag := int64(lags)
					for j := 0; j < i; j++ {
						lag /= 3
					}
					m.up, m.downUntil = mask>>i&1 == 1, math.Inf(1)
					m.generation = newest - lag%3
					if m.up {
						leastLag = min(leastLag, newest-m.generation)
					}
				}
				down := func(w int) bool { return !c.members[w].up }
				state := fmt.Sprintf("%d workers, live mask %b, lags %d (base 3, worker 0 last)", n, mask, lags)
				for k, key := range keys {
					pick := c.pickWorker(key, 0)
					picks[k] = pick
					owner := c.ring.OwnerExcluding(key, down)
					switch {
					case pick < 0 && owner >= 0:
						t.Fatalf("%s: key %d picks no worker with worker %d live", state, k, owner)
					case pick < 0:
						continue
					case pick >= n || !c.members[pick].up:
						t.Fatalf("%s: key %d picks worker %d, which is not live", state, k, pick)
					case newest-c.members[pick].generation != leastLag:
						t.Fatalf("%s: key %d picks worker %d at lag %d, least live lag is %d", state, k, pick, newest-c.members[pick].generation, leastLag)
					case newest-c.members[owner].generation == leastLag && pick != owner:
						t.Fatalf("%s: key %d picks worker %d, the live ring owner %d holds the least lag", state, k, pick, owner)
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
		if code, got := ingestV2(t, tc.front.URL, tr.Requests[lo:hi]); code != 200 || got.Ingested != hi-lo {
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
