package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dcmodel/internal/obs"
)

// getTraces fetches and decodes GET /v1/traces.
func getTraces(t *testing.T, url string) obs.TraceDump {
	t.Helper()
	resp, err := http.Get(url + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d, want 200", resp.StatusCode)
	}
	var dump obs.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

// checkTreeWellFormed asserts the structural invariants of one dumped
// trace tree: parent IDs resolve to an ancestor already seen, and the
// root's interval covers every descendant's.
func checkTreeWellFormed(t *testing.T, tree *obs.TreeDump) {
	t.Helper()
	if tree.Root == nil {
		t.Fatal("tree without root")
	}
	if tree.Root.ParentID != 0 {
		t.Fatalf("root %d has parent %d, want 0", tree.Root.SpanID, tree.Root.ParentID)
	}
	seen := map[uint64]bool{}
	spans := 0
	var walk func(n *obs.NodeDump, parent uint64)
	walk = func(n *obs.NodeDump, parent uint64) {
		spans++
		if n.SpanID == 0 || seen[n.SpanID] {
			t.Fatalf("span ID %d zero or duplicated", n.SpanID)
		}
		seen[n.SpanID] = true
		if parent != 0 {
			if n.ParentID != parent {
				t.Fatalf("span %d has parent %d, want %d", n.SpanID, n.ParentID, parent)
			}
			if !seen[n.ParentID] {
				t.Fatalf("span %d parent %d not an ancestor", n.SpanID, n.ParentID)
			}
		}
		if n.End < n.Start {
			t.Fatalf("span %d ends (%g) before it starts (%g)", n.SpanID, n.End, n.Start)
		}
		if n.Start < tree.Root.Start || n.End > tree.Root.End {
			t.Fatalf("root [%g,%g] does not cover span %d [%g,%g]",
				tree.Root.Start, tree.Root.End, n.SpanID, n.Start, n.End)
		}
		for _, c := range n.Children {
			walk(c, n.SpanID)
		}
	}
	walk(tree.Root, 0)
	if spans != tree.Spans {
		t.Fatalf("tree claims %d spans, walked %d", tree.Spans, spans)
	}
}

// TestObsLifecycle is the observability acceptance test (run under
// -race): the 96-client bounded-load lifecycle with tracing armed, then
// /metrics and /v1/traces scraped and every sampled span tree checked
// for well-formedness while traffic is still possible.
func TestObsLifecycle(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 2048
	cfg.QueueDepth = 16
	cfg.Workers = 4
	cfg.Obs = &obs.Options{SampleEvery: 2, TraceCapacity: 64, Pprof: true}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := traceCSV(t, gfsTrace(t, 400, 1))
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	// 96 concurrent clients against a 16-deep queue: every response must
	// be a 200 or an explicit backpressure/deadline status, with scrapes
	// interleaved to race the collectors against the pipeline.
	const clients = 96
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"kooza", "inbreadth", "indepth"}[i%3]
			resp, err := http.Get(fmt.Sprintf("%s/v1/synthesize?n=200&model=%s&seed=%d", ts.URL, model, i+1))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			if i%8 == 0 {
				r2, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					r2.Body.Close()
				}
				getTraces(t, ts.URL)
			}
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		default:
			t.Fatalf("client %d: status %d, want 200/429/504", i, code)
		}
	}

	dump := getTraces(t, ts.URL)
	if !dump.Enabled || dump.SampleEvery != 2 || dump.Capacity != 64 {
		t.Fatalf("dump header = %+v", dump)
	}
	if dump.Sampled == 0 || len(dump.Traces) == 0 {
		t.Fatalf("no traces sampled: started=%d sampled=%d", dump.Started, dump.Sampled)
	}
	if dump.Started < dump.Sampled {
		t.Fatalf("started=%d < sampled=%d", dump.Started, dump.Sampled)
	}
	for _, tree := range dump.Traces {
		checkTreeWellFormed(t, tree)
	}

	// The stage histograms must have appeared on /metrics now that the
	// layer is armed, and pprof must be mounted.
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	if !strings.Contains(buf.String(), "dcmodeld_stage_seconds_bucket") {
		t.Fatal("stage histograms missing from /metrics with Obs armed")
	}
	r, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("pprof = %d, want 200", r.StatusCode)
	}
}

// TestTracesDeterministicSampling pins the deterministic head-sampling
// contract of GET /v1/traces: a fixed request sequence against a fixed
// SampleEvery always samples the same requests with the same tree
// shapes (trace IDs, span names, span counts).
func TestTracesDeterministicSampling(t *testing.T) {
	run := func() []string {
		cfg := quietConfig()
		cfg.Window = 2048
		cfg.Obs = &obs.Options{SampleEvery: 3, TraceCapacity: 32}
		s := newTestServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		body := traceCSV(t, gfsTrace(t, 200, 7))
		// Every body is read to its end: the last chunk leaves the server
		// only after the handler — and with it the sampled span — has
		// finished, so the requests reach the tracer strictly in order. A
		// body closed unread lets the next request overtake that Finish.
		drain := func(resp *http.Response, err error) int {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode
		}
		drain(http.Post(ts.URL+"/v1/ingest", "text/csv", bytes.NewReader(body)))
		for i := 0; i < 8; i++ {
			if code := drain(http.Get(fmt.Sprintf("%s/v1/synthesize?n=50&seed=%d", ts.URL, i+1))); code != http.StatusOK {
				t.Fatalf("synthesize %d = %d", i, code)
			}
		}
		// 1 ingest + 8 synthesize; head sampling keeps 1, 4, 7. The ring is
		// polled until it holds all three rather than read once.
		dump := getTraces(t, ts.URL)
		for deadline := time.Now().Add(5 * time.Second); len(dump.Traces) < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			dump = getTraces(t, ts.URL)
		}
		if dump.Started != 9 || dump.Sampled != 3 || len(dump.Traces) != 3 {
			t.Fatalf("started=%d sampled=%d held=%d, want 9, 3 and 3", dump.Started, dump.Sampled, len(dump.Traces))
		}
		var shapes []string
		for _, tree := range dump.Traces {
			checkTreeWellFormed(t, tree)
			var names []string
			var walk func(n *obs.NodeDump)
			walk = func(n *obs.NodeDump) {
				names = append(names, n.Name)
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(tree.Root)
			shapes = append(shapes, fmt.Sprintf("trace=%d spans=%d %s",
				tree.TraceID, tree.Spans, strings.Join(names, ",")))
		}
		return shapes
	}

	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs sampled %d vs %d traces", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run shapes diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	// The first sampled trace is the ingest (request 1) with its decode
	// stage and the cold retrain under it.
	if !strings.HasPrefix(a[0], "trace=1 ") || !strings.Contains(a[0], "http:ingest") ||
		!strings.Contains(a[0], "ingest.decode") || !strings.Contains(a[0], "train:cold") {
		t.Fatalf("first sampled trace = %q, want the ingest with decode and cold-train spans", a[0])
	}
	// Sampled synthesize requests carry the queue.wait and synthesize
	// stages.
	if !strings.Contains(a[1], "http:synthesize") || !strings.Contains(a[1], "queue.wait") ||
		!strings.Contains(a[1], "synthesize") {
		t.Fatalf("second sampled trace = %q, want a synthesize pipeline", a[1])
	}
}

// TestTracesDisabled pins the off-state contract: a daemon without Obs
// still serves GET /v1/traces, reporting enabled=false and no trees.
func TestTracesDisabled(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	dump := getTraces(t, ts.URL)
	if dump.Enabled || len(dump.Traces) != 0 {
		t.Fatalf("dump = %+v, want disabled and empty", dump)
	}
	// And pprof must NOT be mounted (no Obs, no profiling surface).
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without Obs.Pprof")
	}
}
