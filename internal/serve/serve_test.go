package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcmodel/internal/gfs"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

// gfsTrace simulates a small GFS workload for ingest bodies.
func gfsTrace(t testing.TB, n int, seed int64) *trace.Trace {
	t.Helper()
	cluster, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cluster.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 200},
		Requests: n,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func traceCSV(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// quietConfig disables the background triggers so tests drive retraining
// explicitly.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.PollInterval = time.Hour
	cfg.RetrainInterval = time.Hour
	return cfg
}

// TestLifecycle is the end-to-end acceptance test: ingest a GFS trace over
// HTTP, then hammer /v1/synthesize with 96 concurrent requests against a
// bounded queue and assert every response is a clean 200 or an explicit
// backpressure/deadline status — never a hang, never a dropped body.
func TestLifecycle(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 2048
	cfg.QueueDepth = 16
	cfg.Workers = 4
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold daemon refuses queries but reports itself alive.
	resp, err := http.Get(ts.URL + "/v1/synthesize?n=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold synthesize status = %d, want 503", resp.StatusCode)
	}

	// Stream a trace in; the first trainable window trains immediately.
	body := traceCSV(t, gfsTrace(t, 400, 1))
	resp, err = http.Post(ts.URL+"/v1/ingest", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		Ingested  int    `json:"ingested"`
		Window    int    `json:"window"`
		Retrained bool   `json:"retrained"`
		Reason    string `json:"retrain_reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, want 200", resp.StatusCode)
	}
	if ing.Ingested != 400 || ing.Window != 400 {
		t.Fatalf("ingest = %+v, want 400 requests in window", ing)
	}
	if !ing.Retrained || ing.Reason != ReasonCold {
		t.Fatalf("first ingest retrained=%v reason=%q, want cold retrain", ing.Retrained, ing.Reason)
	}

	var hz struct {
		Warm      bool `json:"warm"`
		TrainedOn int  `json:"trained_on"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hz.Warm || hz.TrainedOn != 400 {
		t.Fatalf("healthz = %+v, want warm model trained on 400", hz)
	}

	// Parameter validation: bad values are 400s, not clamps.
	for _, q := range []string{"n=0", "n=-5", "seed=0", "seed=-1", "seed=x", "model=bogus", "format=xml"} {
		resp, err := http.Get(ts.URL + "/v1/synthesize?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("synthesize?%s status = %d, want 400", q, resp.StatusCode)
		}
	}

	// Concurrent load: 96 clients against a 16-deep queue. Every request
	// must resolve to 200 (served), 429 (backpressure) or 504 (deadline).
	const clients = 96
	codes := make([]int, clients)
	bodies := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"kooza", "inbreadth", "indepth"}[i%3]
			url := fmt.Sprintf("%s/v1/synthesize?n=150&seed=%d&model=%s", ts.URL, i+1, model)
			resp, err := http.Get(url)
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = len(b)
			if resp.StatusCode == http.StatusOK {
				tr, err := trace.ReadCSV(bytes.NewReader(b))
				if err != nil || tr.Len() != 150 {
					t.Errorf("client %d: bad 200 body: err=%v len=%d", i, err, tr.Len())
				}
			}
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("client %d: 429 without Retry-After", i)
			}
		}(i)
	}
	wg.Wait()
	served, rejected, timedOut := 0, 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusGatewayTimeout:
			timedOut++
		default:
			t.Fatalf("client %d: unexpected status %d", i, c)
		}
	}
	if served == 0 {
		t.Fatal("no synthesize request was served under load")
	}
	t.Logf("load: %d served, %d rejected (429), %d deadline (504)", served, rejected, timedOut)

	// Characterization of the warm models.
	resp, err = http.Get(ts.URL + "/v1/characterize?n=150&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var ch struct {
		TrainedOn int `json:"trained_on"`
		Scores    []struct {
			Name string `json:"name"`
		} `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize status = %d, want 200", resp.StatusCode)
	}
	if len(ch.Scores) != 3 || ch.TrainedOn != 400 {
		t.Fatalf("characterize = %+v, want 3 approaches trained on 400", ch)
	}

	// Replay round-trips a trace with timings filled in.
	resp, err = http.Post(ts.URL+"/v1/replay", "text/csv", bytes.NewReader(traceCSV(t, gfsTrace(t, 50, 2))))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.ReadCSV(resp.Body)
	resp.Body.Close()
	if err != nil || replayed.Len() != 50 {
		t.Fatalf("replay: err=%v len=%d, want 50 requests", err, replayed.Len())
	}

	// Metrics expose the request counters and queue/window gauges.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dcmodeld_requests_total{handler="synthesize",code="200"}`,
		"dcmodeld_request_seconds_bucket",
		"dcmodeld_retrain_total 1",
		"dcmodeld_ingested_requests_total 400",
		"dcmodeld_window_requests 400",
		"dcmodeld_queue_depth",
		`dcmodeld_window_spans{subsystem="storage"}`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if rejected > 0 && !strings.Contains(string(mb), "dcmodeld_queue_rejected_total "+fmt.Sprint(rejected)) {
		t.Errorf("metrics rejected counter does not match %d observed 429s", rejected)
	}

	// After Close the daemon refuses new work instead of hanging.
	s.Close()
	resp, err = http.Get(ts.URL + "/v1/synthesize?n=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close synthesize status = %d, want 503", resp.StatusCode)
	}
}

// TestBackpressureDeterministic pins the 429 path exactly: with one worker
// wedged and the one queue slot full, the next request must be refused
// immediately, and served again once the queue drains.
func TestBackpressureDeterministic(t *testing.T) {
	cfg := quietConfig()
	cfg.QueueDepth = 1
	cfg.Workers = 1
	s := newTestServer(t, cfg)
	if _, _, err := s.Ingest(gfsTrace(t, 100, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(running); <-block }) {
		t.Fatal("could not submit the wedge job")
	}
	<-running
	filled := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(filled) }) {
		t.Fatal("could not fill the queue slot")
	}

	resp, err := http.Get(ts.URL + "/v1/synthesize?n=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status with full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}

	// Once the job that filled the slot runs, a worker has taken it off the
	// queue: the slot is free, and the next request is admitted and served.
	close(block)
	<-filled
	resp, err = http.Get(ts.URL + "/v1/synthesize?n=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status once the queue drained = %d, want 200", resp.StatusCode)
	}
}

// TestUnknownModelRefusedCold: a model name the daemon does not serve is a
// 400 from every handler that takes one, on a cold daemon as on a warm one.
// On a cold daemon it used to be a 503 ("ingest a trace first"), which a
// client retries forever.
func TestUnknownModelRefusedCold(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	asks := []struct {
		name string
		do   func(model string) (int, []byte)
	}{
		{"synthesize", func(model string) (int, []byte) {
			return get(t, ts.URL+"/v1/synthesize?n=10&model="+model)
		}},
		{"whatif", func(model string) (int, []byte) {
			return post(t, ts.URL+"/v1/whatif", `{"model":"`+model+`","query":{}}`)
		}},
		{"provision", func(model string) (int, []byte) {
			return post(t, ts.URL+"/v1/provision", `{"model":"`+model+`","request":{"objective":{"target_seconds":0.2}}}`)
		}},
	}
	for _, warm := range []bool{false, true} {
		if warm {
			if _, _, err := s.Ingest(gfsTrace(t, 100, 1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range asks {
			if code, body := a.do("bogus"); code != http.StatusBadRequest {
				t.Fatalf("warm=%t %s model=bogus: status %d (%s), want 400", warm, a.name, code, body)
			}
			if warm {
				continue
			}
			if code, body := a.do("kooza"); code != http.StatusServiceUnavailable {
				t.Fatalf("cold %s model=kooza: status %d (%s), want 503", a.name, code, body)
			}
		}
	}
}

// TestServeGracefulDrain exercises the SIGTERM path: cancel the serve
// context while requests are in flight and assert every admitted request
// completes with a full body — nothing is dropped mid-drain — and that a
// request dialled after the drain is refused at the dial.
func TestServeGracefulDrain(t *testing.T) {
	cfg := quietConfig()
	cfg.QueueDepth = 64
	cfg.Workers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each request the test sends is one job the work queue admits.
	const clients = 8
	admitted := make(chan struct{}, clients)
	s.onAdmit = func() { admitted <- struct{}{} }
	if _, _, err := s.Ingest(gfsTrace(t, 200, 1)); err != nil {
		t.Fatal(err)
	}

	// The listener is bound before Serve runs, so a client may dial at once:
	// the kernel queues the connection until Serve accepts it. Nothing else
	// talks to the daemon, so no idle keep-alive connection is left for the
	// drain to close under a request.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// In-flight load: big-enough syntheses that the drain overlaps them.
	type result struct {
		code int
		n    int
		err  error
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			url := fmt.Sprintf("%s/v1/synthesize?n=5000&seed=%d", base, i+1)
			resp, err := client.Get(url)
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
			}
			results <- r
		}(i)
	}

	// SIGTERM once every request is in the daemon's hands.
	deadline := time.After(10 * time.Second)
	for i := 0; i < clients; i++ {
		select {
		case <-admitted:
		case <-deadline:
			t.Fatalf("only %d of %d requests admitted after 10s", i, clients)
		}
	}
	cancel()

	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request %d dropped during drain: %v", i, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("request %d status = %d during drain, want 200", i, r.code)
		}
		if r.n != 5000 {
			t.Fatalf("request %d body truncated: %d of 5000 requests", i, r.n)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	// A new connection is refused at the dial, not accepted and then reset.
	fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	_, err = fresh.Get(base + "/healthz")
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Fatalf("a request dialled after the drain: %v, want a refused dial", err)
	}
}

// regimeTrace builds a hand-crafted single-class trace whose storage spans
// walk the given LBN regions in a cycle, under the 8-region / 8000-block
// quantization of the drift tests.
func regimeTrace(n int, regions []int, startID int64) *trace.Trace {
	const perRegion = 1000
	tr := &trace.Trace{}
	at := float64(startID) * 0.01
	ri := 0
	for i := 0; i < n; i++ {
		req := trace.Request{
			ID:      startID + int64(i),
			Class:   "read64K",
			Arrival: at,
			Spans: []trace.Span{
				{Subsystem: trace.Network, Start: at, Duration: 0.001, Op: trace.OpRead, Bytes: 64 << 10},
				{Subsystem: trace.CPU, Start: at + 0.001, Duration: 0.002, Util: 0.5},
				{Subsystem: trace.Memory, Start: at + 0.003, Duration: 0.001, Bytes: 64 << 10, Bank: 1},
			},
		}
		off := at + 0.004
		for k := 0; k < 4; k++ {
			region := regions[ri%len(regions)]
			ri++
			req.Spans = append(req.Spans, trace.Span{
				Subsystem: trace.Storage,
				Start:     off,
				Duration:  0.002,
				Op:        trace.OpRead,
				Bytes:     64 << 10,
				LBN:       int64(region*perRegion) + int64(i%perRegion),
			})
			off += 0.002
		}
		tr.Requests = append(tr.Requests, req)
		at += 0.01
	}
	return tr
}

// TestDriftRetrainConvergence streams a distribution-shifted window and
// asserts (a) the chi-square trigger retrains on the shift and only on the
// shift, and (b) once the old regime is evicted the served storage chain
// has converged to the new regime.
func TestDriftRetrainConvergence(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 256
	cfg.RetrainMin = 32
	cfg.DriftP = 0.01
	cfg.DriftMinTransitions = 64
	cfg.StorageRegions = 8
	cfg.DiskBlocks = 8000
	s := newTestServer(t, cfg)

	regimeA := []int{0, 1, 2}
	regimeB := []int{5, 6, 7}

	// Cold start on regime A.
	retrained, reason, err := s.Ingest(regimeTrace(128, regimeA, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !retrained || reason != ReasonCold {
		t.Fatalf("first batch: retrained=%v reason=%q, want cold", retrained, reason)
	}

	// More of the same regime: the drift test must stay quiet.
	retrained, reason, err = s.Ingest(regimeTrace(64, regimeA, 128))
	if err != nil {
		t.Fatal(err)
	}
	if retrained {
		t.Fatalf("in-distribution batch retrained (reason %q)", reason)
	}

	// Distribution shift: same class, storage walks disjoint regions.
	retrained, reason, err = s.Ingest(regimeTrace(64, regimeB, 192))
	if err != nil {
		t.Fatal(err)
	}
	if !retrained || reason != ReasonDrift {
		t.Fatalf("shifted batch: retrained=%v reason=%q, want drift", retrained, reason)
	}

	// Keep streaming regime B until regime A is fully evicted from the
	// 256-request window, then pin a final retrain and check convergence.
	for i := 0; i < 4; i++ {
		if _, _, err := s.Ingest(regimeTrace(64, regimeB, 256+int64(i)*64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	ms := s.model.Load()
	if ms == nil || ms.RefStorage == nil {
		t.Fatal("no served storage reference after convergence retrains")
	}
	pi, err := ms.RefStorage.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	var newMass, oldMass float64
	for _, r := range regimeB {
		newMass += pi[r]
	}
	for _, r := range regimeA {
		oldMass += pi[r]
	}
	if newMass < 0.95 {
		t.Fatalf("stationary mass on new regime = %.3f, want >= 0.95 (pi=%v)", newMass, pi)
	}
	if oldMass > 0.03 {
		t.Fatalf("stationary mass on old regime = %.3f, want <= 0.03 (pi=%v)", oldMass, pi)
	}

	// The synthesized workload follows the chain: storage spans land in the
	// new regime.
	synth, err := ms.Kooza.Synthesize(500, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	inNew, total := 0, 0
	for _, r := range synth.Requests {
		for _, sp := range r.Spans {
			if sp.Subsystem != trace.Storage {
				continue
			}
			total++
			region := int(sp.LBN / 1000)
			if region >= 5 {
				inNew++
			}
		}
	}
	if total == 0 {
		t.Fatal("synthesized trace has no storage spans")
	}
	if frac := float64(inNew) / float64(total); frac < 0.9 {
		t.Fatalf("synthesized storage spans in new regime = %.2f, want >= 0.9", frac)
	}

	// The drift retrain was counted.
	var buf bytes.Buffer
	s.metrics.reg.WriteText(&buf)
	if !strings.Contains(buf.String(), "dcmodeld_retrain_drift_total 1") {
		t.Error("metrics missing the drift retrain count")
	}
}

// TestIngestRejectsMalformed confirms a defective stream is a 400 that
// still reports what was ingested before the defect.
func TestIngestRejectsMalformed(t *testing.T) {
	cfg := quietConfig()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := traceCSV(t, gfsTrace(t, 10, 1))
	body := append(append([]byte{}, good...), []byte("not,a,valid,row\n")...)
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing struct {
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest status = %d, want 400", resp.StatusCode)
	}
	if ing.Error == "" {
		t.Fatal("malformed ingest reported no error")
	}
	if ing.Ingested == 0 {
		t.Fatal("rows decoded before the defect were discarded")
	}
}

// TestIngestRefusesInvalidRequest: a request that decodes but that no
// trainer would take (here a NaN span duration) is refused like a decode
// error — a 400 naming it, the requests before it kept — instead of
// entering the window, where it used to fail every retrain until it aged
// out. A clean body after it trains.
func TestIngestRefusesInvalidRequest(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	type answer struct {
		Ingested   int    `json:"ingested"`
		Retrained  bool   `json:"retrained"`
		Error      string `json:"error"`
		TrainError string `json:"train_error"`
	}
	post := func(tr *trace.Trace) (int, answer) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", bytes.NewReader(traceCSV(t, tr)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var a answer
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, a
	}

	bad := gfsTrace(t, 200, 1)
	bad.Requests[120].Spans[1].Duration = math.NaN()
	code, a := post(bad)
	if code != http.StatusBadRequest || a.Ingested != 120 || a.TrainError != "" ||
		!strings.Contains(a.Error, fmt.Sprintf("request %d span 1 has invalid duration NaN", bad.Requests[120].ID)) {
		t.Fatalf("body with a NaN duration = %d %+v, want 400 naming it, 120 ingested, no train error", code, a)
	}
	if !a.Retrained {
		t.Fatal("the requests before the refused one did not train")
	}

	clean := gfsTrace(t, 300, 2)
	for i := range clean.Requests {
		clean.Requests[i].ID += 1000
	}
	if code, a := post(clean); code != http.StatusOK || a.Ingested != 300 || a.Error != "" || a.TrainError != "" {
		t.Fatalf("clean body after the refusal = %d %+v, want 200 and no error", code, a)
	}
	if err := s.Retrain(); err != nil {
		t.Fatalf("retrain over the window: %v", err)
	}
}

// TestServerIngestRefusesInvalidRequest: Server.Ingest, the Go sibling of
// POST /v1/ingest that dcmodeld -warm-spec calls, refuses a request that
// Request.Validate refuses the way the handler does: the requests before it
// are kept and trained on, and the error names it. It used to let it in,
// and then the cold retrain and every retrain after it failed until the
// request aged out of the window.
func TestServerIngestRefusesInvalidRequest(t *testing.T) {
	s := newTestServer(t, quietConfig())
	bad := gfsTrace(t, 200, 1)
	bad.Requests[120].Spans[1].Util = math.NaN()
	retrained, reason, err := s.Ingest(bad)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d span 1 has utilization NaN", bad.Requests[120].ID)) {
		t.Fatalf("Ingest of a NaN utilization: err = %v, want it named", err)
	}
	if strings.Contains(err.Error(), "invalid training trace") || !retrained || reason != ReasonCold {
		t.Fatalf("Ingest of a NaN utilization: retrained=%t reason=%q err=%v, want the 120 requests before it to train cold", retrained, reason, err)
	}
	if n, _, _, _ := s.win.stats(); n != 120 {
		t.Fatalf("window holds %d requests, want the 120 before the refused one", n)
	}

	clean := gfsTrace(t, 300, 2)
	if _, _, err := s.Ingest(clean); err != nil {
		t.Fatalf("clean trace after the refusal: %v", err)
	}
	if err := s.Retrain(); err != nil {
		t.Fatalf("retrain over the window: %v", err)
	}
}

// TestConfigValidation pins the constructor's rejection surface.
func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.DriftP = 1.5
	if _, err := New(bad); err == nil {
		t.Error("DriftP > 1 accepted")
	}
	bad = DefaultConfig()
	bad.Window = 2
	if _, err := New(bad); err == nil {
		t.Error("window of 2 accepted")
	}
}
