package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcmodel/internal/trace"
)

// nanTrace builds a trace whose arrivals are NaN: it streams through ingest
// (the window does not re-validate) but every trainer rejects it, which is
// the deterministic way to poison the retrain path.
func nanTrace(n int, startID int64) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			ID:      startID + int64(i),
			Class:   "read64K",
			Arrival: math.NaN(),
			Spans: []trace.Span{
				{Subsystem: trace.CPU, Duration: 0.001, Util: 0.5},
			},
		})
	}
	return tr
}

// metricsBody fetches /metrics through the handler.
func metricsBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestRetrainBreaker: a poisoned window fails retrains without taking down
// serving — after BreakerThreshold consecutive failures the breaker opens,
// automatic retrains go quiet, the last good generation keeps serving, and
// a successful manual retrain over a cleaned window closes the breaker.
func TestRetrainBreaker(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 8
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Hour
	s := newTestServer(t, cfg)

	// Warm up on good data.
	retrained, reason, err := s.Ingest(gfsTrace(t, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !retrained || reason != ReasonCold {
		t.Fatalf("warmup: retrained=%v reason=%q, want cold", retrained, reason)
	}
	gen1 := s.model.Load()
	if gen1 == nil {
		t.Fatal("no model after warmup")
	}

	// Poison the whole window, then force retrains until the breaker trips.
	if _, _, err := s.Ingest(nanTrace(8, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cfg.BreakerThreshold; i++ {
		if err := s.Retrain(); err == nil {
			t.Fatalf("retrain %d on a poisoned window succeeded", i)
		}
		if got := s.model.Load(); got != gen1 {
			t.Fatalf("retrain failure %d swapped the served generation", i)
		}
	}
	if open, _ := s.BreakerOpen(); !open {
		t.Fatalf("breaker closed after %d consecutive failures", cfg.BreakerThreshold)
	}
	if got := s.metrics.breakerTrips.Value(); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}

	// With the breaker open, poisoned ingests are quiet no-ops: no retrain
	// attempt, no error, no new failures counted.
	errsBefore := s.metrics.retrainErrors.Value()
	retrained, _, err = s.Ingest(nanTrace(8, 200))
	if err != nil || retrained {
		t.Fatalf("ingest with open breaker: retrained=%v err=%v, want quiet no-op", retrained, err)
	}
	if got := s.metrics.retrainErrors.Value(); got != errsBefore {
		t.Fatalf("open breaker still attempted a retrain (%d -> %d errors)", errsBefore, got)
	}

	// The last good generation is still the one serving.
	if got := s.model.Load(); got != gen1 {
		t.Fatal("poisoned retrains changed the served generation")
	}
	hz := httptest.NewRecorder()
	s.Handler().ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Warm        bool `json:"warm"`
		BreakerOpen bool `json:"retrain_breaker_open"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Warm || !health.BreakerOpen {
		t.Fatalf("healthz = %+v, want warm with an open breaker", health)
	}
	if !strings.Contains(metricsBody(t, s), "dcmodeld_retrain_breaker_trips_total 1") {
		t.Error("metrics missing the breaker trip counter")
	}

	// Clean data evicts the poison; the manual probe closes the breaker.
	if _, _, err := s.Ingest(gfsTrace(t, 8, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Retrain(); err != nil {
		t.Fatalf("probe retrain over a clean window: %v", err)
	}
	if open, _ := s.BreakerOpen(); open {
		t.Fatal("breaker still open after a successful retrain")
	}
	if got := s.model.Load(); got == gen1 {
		t.Fatal("probe retrain did not produce a fresh generation")
	}
}

// TestFaultsAdminEndpoint drives the /v1/faults lifecycle over HTTP:
// query, arm (with validation), observe degraded replay, disarm, and
// observe healthy replay again.
func TestFaultsAdminEndpoint(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getFaults := func() faultsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/faults")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/faults status = %d", resp.StatusCode)
		}
		var fr faultsResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	if fr := getFaults(); fr.Armed || fr.Scenario != nil {
		t.Fatalf("fresh daemon reports %+v, want disarmed", fr)
	}

	// Bad bodies and bad scenarios are 400s and leave the daemon disarmed.
	for _, body := range []string{"{", `{"mtbf": -1, "mttr": 1}`, `{"mtbf": 2}`, `{"bogus": 1}`} {
		resp, err := http.Post(ts.URL+"/v1/faults", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s status = %d, want 400", body, resp.StatusCode)
		}
	}
	if fr := getFaults(); fr.Armed {
		t.Fatal("rejected scenario left the daemon armed")
	}

	// Baseline: deterministic healthy replay.
	body := traceCSV(t, gfsTrace(t, 600, 3))
	replayOnce := func() *trace.Trace {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/replay", "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay status = %d", resp.StatusCode)
		}
		tr, err := trace.ReadCSV(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	healthy := replayOnce()
	for _, r := range healthy.Requests {
		if r.Retries > 0 {
			t.Fatal("healthy replay produced retries")
		}
	}

	// Arm an aggressive scenario; defaults are filled in the response.
	resp, err := http.Post(ts.URL+"/v1/faults", "application/json",
		strings.NewReader(`{"mtbf": 2, "mttr": 0.5, "rack_size": 2, "seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	var armed faultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&armed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !armed.Armed || armed.Scenario == nil {
		t.Fatalf("arm: status=%d body=%+v", resp.StatusCode, armed)
	}
	if armed.Scenario.Timeout <= 0 || armed.Scenario.Backoff <= 0 {
		t.Fatalf("armed scenario missing defaults: %+v", armed.Scenario)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		FaultsArmed bool `json:"faults_armed"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if !health.FaultsArmed {
		t.Fatal("healthz does not report the armed scenario")
	}

	// Degraded replay: same trace, now with requeues and grown latencies.
	degraded := replayOnce()
	if degraded.Len() != healthy.Len() {
		t.Fatalf("degraded replay returned %d of %d requests", degraded.Len(), healthy.Len())
	}
	retried := 0
	for _, r := range degraded.Requests {
		if r.Retries > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("armed scenario did not degrade the replay")
	}

	// Disarm: replay is healthy (and deterministic) again.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/faults", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarm status = %d", resp.StatusCode)
	}
	if fr := getFaults(); fr.Armed {
		t.Fatal("daemon still armed after DELETE")
	}
	again := replayOnce()
	if again.Len() != healthy.Len() {
		t.Fatalf("post-disarm replay returned %d requests", again.Len())
	}
	for _, r := range again.Requests {
		if r.Retries > 0 {
			t.Fatal("post-disarm replay still degraded")
		}
	}

	// Method and drain checks.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/faults", strings.NewReader("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT status = %d, want 405", resp.StatusCode)
	}
	s.Close()
	resp, err = http.Post(ts.URL+"/v1/faults", "application/json",
		strings.NewReader(`{"mtbf": 2, "mttr": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("arming a draining daemon: status = %d, want 503", resp.StatusCode)
	}
}

// TestFaultArmedDrainNoDrops is the chaos acceptance test: with an
// aggressive fault scenario armed over /v1/faults, a graceful drain fired
// mid-flight must still complete every admitted replay and synthesize
// request with a full body — faults degrade latency, never availability.
func TestFaultArmedDrainNoDrops(t *testing.T) {
	cfg := quietConfig()
	cfg.QueueDepth = 64
	cfg.Workers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest(gfsTrace(t, 200, 1)); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/faults", "application/json",
		strings.NewReader(`{"mtbf": 2, "mttr": 0.5, "rack_size": 2, "seed": 9}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm status = %d", resp.StatusCode)
	}

	// Bodies are prebuilt: goroutines must not touch testing.T helpers.
	const clients = 8
	const replayN, synthN = 400, 3000
	replayBodies := make([][]byte, clients)
	for i := 0; i < clients; i += 2 {
		replayBodies[i] = traceCSV(t, gfsTrace(t, replayN, int64(i)+10))
	}

	type result struct {
		code    int
		n       int
		retried int
		err     error
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			var resp *http.Response
			var err error
			if i%2 == 0 {
				resp, err = http.Post(base+"/v1/replay", "text/csv", bytes.NewReader(replayBodies[i]))
			} else {
				resp, err = http.Get(fmt.Sprintf("%s/v1/synthesize?n=%d&seed=%d", base, synthN, i+1))
			}
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				results <- result{code: resp.StatusCode, err: err}
				return
			}
			r := result{code: resp.StatusCode}
			if resp.StatusCode == http.StatusOK {
				tr, err := trace.ReadCSV(bytes.NewReader(b))
				if err != nil {
					results <- result{code: resp.StatusCode, err: err}
					return
				}
				r.n = tr.Len()
				for _, req := range tr.Requests {
					if req.Retries > 0 {
						r.retried++
					}
				}
			}
			results <- r
		}(i)
	}

	// SIGTERM once every request is in the daemon's hands — a client still
	// connecting when the listener closes is refused, not dropped by the
	// drain. Each request is one admitted job, and an admitted job is
	// finished, running or queued; read in that order (a job only moves
	// the other way) the sum never counts one twice.
	admitted := func() int {
		n := int(s.pool.Completed())
		n += s.pool.Running()
		return n + s.pool.Depth()
	}
	for deadline := time.Now().Add(10 * time.Second); admitted() < clients; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted after 10s", admitted(), clients)
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	totalRetried := 0
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request %d dropped during armed drain: %v", i, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("request %d status = %d during armed drain, want 200", i, r.code)
		}
		if r.n != replayN && r.n != synthN {
			t.Fatalf("request %d body truncated: %d requests", i, r.n)
		}
		totalRetried += r.retried
	}
	if totalRetried == 0 {
		t.Error("no replayed request carried retries — the armed scenario never engaged")
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after armed drain, want nil", err)
	}
}
