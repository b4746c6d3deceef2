package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/obs"
	"dcmodel/internal/trace"
)

// failingHosts is a RoundTripper that fails the worker RPCs a test picks,
// by worker index, and sends the rest on. It is set only between the test's
// own calls, while no RPC is in flight.
type failingHosts struct {
	mu    sync.Mutex
	index map[string]int // URL host -> worker index
	fail  func(worker int, r *http.Request) bool
}

func (f *failingHosts) set(fail func(worker int, r *http.Request) bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *failingHosts) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if w, ok := f.index[r.URL.Host]; ok && fail != nil && fail(w, r) {
		return nil, fmt.Errorf("worker %d unreachable (test)", w)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// startFlakyCluster is startCluster with the coordinator's worker RPCs going
// through a failingHosts, automatic merges off and dead workers never probed
// again, so that a test decides every merge and every death.
func startFlakyCluster(t *testing.T, n int) (*testCluster, *failingHosts) {
	t.Helper()
	fh := &failingHosts{index: map[string]int{}}
	tc := startCluster(t, n, func(cfg *CoordinatorConfig) {
		for i, raw := range cfg.Workers {
			u, err := url.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			fh.index[u.Host] = i
		}
		cfg.Client = &http.Client{Transport: fh}
		cfg.MergeEvery = -1
		cfg.Cooldown = 1e9
		cfg.FaultClock = func() float64 { return 0 }
	})
	return tc, fh
}

// ingestReply is the coordinator's answer to an ingest body.
type ingestReply struct {
	Ingested int `json:"ingested"`
	Routed   int `json:"routed"`
	Absorbed int `json:"absorbed_locally"`
}

// ingestV2 POSTs reqs as one trace-v2 body and returns status and answer.
func ingestV2(t *testing.T, url string, reqs []trace.Request) (int, ingestReply) {
	t.Helper()
	body, err := trace.AppendBinary(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return ingestRaw(t, url, trace.ContentTypeV2, body)
}

func ingestRaw(t *testing.T, url, contentType string, body []byte) (int, ingestReply) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out ingestReply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("ingest response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func clusterStats(t *testing.T, url string) ClusterStats {
	t.Helper()
	code, body := getBody(t, url+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var stats ClusterStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// shardRequests asks a worker how many requests its shard holds.
func shardRequests(t *testing.T, workerURL string) int64 {
	t.Helper()
	code, body := getBody(t, workerURL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("worker stats status %d", code)
	}
	var ws WorkerStats
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	return ws.ShardRequests
}

// checkLogsCut fails unless every live member's log is empty, as it is
// after a merge.
func checkLogsCut(t *testing.T, stats ClusterStats) {
	t.Helper()
	for i, w := range stats.Workers {
		if w.Logged != 0 {
			t.Errorf("worker %d (up=%v) has %d logged requests after a merge, want 0", i, w.Up, w.Logged)
		}
	}
}

// TestFanOutTwoWorkersFail: two of three owners failing inside one fan-out
// are both killed, in member order, and everything they held lands on the
// survivor, once.
func TestFanOutTwoWorkersFail(t *testing.T) {
	tr := testTrace(t, 1500, 41)
	tc, fh := startFlakyCluster(t, 3)

	if code, got := ingestV2(t, tc.front.URL, tr.Requests[:500]); code != 200 || got != (ingestReply{500, 500, 0}) {
		t.Fatalf("first body: status %d, %+v", code, got)
	}
	before := clusterStats(t, tc.front.URL)
	fh.set(func(w int, r *http.Request) bool { return w != 1 && r.URL.Path == "/v1/ingest" })
	if code, got := ingestV2(t, tc.front.URL, tr.Requests[500:1000]); code != 200 || got != (ingestReply{500, 500, 0}) {
		t.Fatalf("body with two owners failing: status %d, %+v", code, got)
	}
	stats := clusterStats(t, tc.front.URL)
	if stats.Workers[0].Up || !stats.Workers[1].Up || stats.Workers[2].Up {
		t.Fatalf("up = %v %v %v, want only worker 1", stats.Workers[0].Up, stats.Workers[1].Up, stats.Workers[2].Up)
	}
	if stats.Workers[1].Logged != 1000 || stats.Workers[0].Logged != 0 || stats.Workers[2].Logged != 0 {
		t.Errorf("logged = %d %d %d, want 0 1000 0", stats.Workers[0].Logged, stats.Workers[1].Logged, stats.Workers[2].Logged)
	}
	// Re-replicated: everything the two held, and their shares of the body.
	ring, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(before.Workers[0].Logged + before.Workers[2].Logged)
	for _, req := range tr.Requests[500:1000] {
		if ring.Owner(Key(req.ID, req.Class)) != 1 {
			want++
		}
	}
	if stats.Redistributed != want {
		t.Errorf("redistributed = %d, want %d", stats.Redistributed, want)
	}
	if got := shardRequests(t, tc.workers[1].URL); got != 1000 {
		t.Errorf("survivor's shard holds %d requests, want 1000", got)
	}
	if code, got := ingestV2(t, tc.front.URL, tr.Requests[1000:]); code != 200 || got != (ingestReply{500, 500, 0}) {
		t.Fatalf("last body: status %d, %+v", code, got)
	}
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, modelBytes(t, DefaultModelConfig(), tr.Requests)) {
		t.Fatal("merged model differs from single-node training")
	}
	checkLogsCut(t, clusterStats(t, tc.front.URL))
}

// TestMergePullAndPushFailures kills one worker on the merge's pull and one
// on its push, both after a merge has cut their logs: what a dead worker
// held up to its checkpoint is counted once, in the coordinator's own shard,
// and only the suffix is re-routed.
func TestMergePullAndPushFailures(t *testing.T) {
	tr := testTrace(t, 2000, 43)
	tc, fh := startFlakyCluster(t, 3)
	want := func(n int) []byte { return modelBytes(t, DefaultModelConfig(), tr.Requests[:n]) }
	ingest := func(lo, hi int) {
		t.Helper()
		if code, got := ingestV2(t, tc.front.URL, tr.Requests[lo:hi]); code != 200 || got != (ingestReply{hi - lo, hi - lo, 0}) {
			t.Fatalf("body %d..%d: status %d, %+v", lo, hi, code, got)
		}
	}

	ingest(0, 600)
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want(600)) {
		t.Fatal("generation 1 differs from single-node training")
	}
	checkLogsCut(t, clusterStats(t, tc.front.URL))
	checkpoint0 := shardRequests(t, tc.workers[0].URL)

	// A suffix, then worker 0 fails the pull.
	ingest(600, 1200)
	suffix0 := clusterStats(t, tc.front.URL).Workers[0].Logged
	if suffix0 == 0 || checkpoint0 == 0 {
		t.Fatalf("worker 0 holds checkpoint %d and suffix %d, the test needs both", checkpoint0, suffix0)
	}
	fh.set(func(w int, r *http.Request) bool {
		return w == 0 && r.Method == http.MethodGet && r.URL.Path == "/v1/model"
	})
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want(1200)) {
		t.Fatal("model after a failed pull differs from single-node training")
	}
	stats := clusterStats(t, tc.front.URL)
	checkLogsCut(t, stats)
	if stats.Workers[0].Up {
		t.Error("worker 0 still up after failing the pull")
	}
	if stats.LocalRequests != checkpoint0 {
		t.Errorf("local_requests = %d, want worker 0's checkpoint %d", stats.LocalRequests, checkpoint0)
	}
	if stats.Redistributed != int64(suffix0) {
		t.Errorf("redistributed = %d, want worker 0's suffix %d", stats.Redistributed, suffix0)
	}

	// Worker 1 takes the pull and fails the push: its log is already cut,
	// its whole shard is its checkpoint.
	ingest(1200, 1800)
	fh.set(func(w int, r *http.Request) bool {
		return w == 1 && r.Method == http.MethodPost && r.URL.Path == "/v1/model"
	})
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want(1800)) {
		t.Fatal("model after a failed push differs from single-node training")
	}
	shard1 := shardRequests(t, tc.workers[1].URL)
	stats = clusterStats(t, tc.front.URL)
	checkLogsCut(t, stats)
	if stats.Workers[1].Up || !stats.Workers[2].Up {
		t.Errorf("up = _ %v %v, want worker 1 down and worker 2 up", stats.Workers[1].Up, stats.Workers[2].Up)
	}
	if stats.LocalRequests != checkpoint0+shard1 {
		t.Errorf("local_requests = %d, want both checkpoints %d+%d", stats.LocalRequests, checkpoint0, shard1)
	}
	if stats.Redistributed != int64(suffix0) {
		t.Errorf("redistributed = %d, want it unchanged at %d: worker 1 had no suffix", stats.Redistributed, suffix0)
	}
	if _, metrics := getBody(t, tc.front.URL+"/metrics"); !strings.Contains(string(metrics), "dcmodel_cluster_checkpoint_folds_total 2\n") {
		t.Error("dcmodel_cluster_checkpoint_folds_total is not 2")
	}

	// The next generations count both checkpoints once more, no more.
	fh.set(nil)
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want(1800)) {
		t.Fatal("the generation after the deaths differs from single-node training")
	}
	ingest(1800, 2000)
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want(2000)) {
		t.Fatal("final model differs from single-node training")
	}
}

// TestConcurrentMixedCodecIngest sends 8 bodies at once, trace-v2 and CSV in
// turn, through the recycled readers and request slices of both handlers.
func TestConcurrentMixedCodecIngest(t *testing.T) {
	tr := testTrace(t, 2400, 47)
	tc := startCluster(t, 3, func(cfg *CoordinatorConfig) { cfg.MergeEvery = 512 })
	var wg sync.WaitGroup
	for i, chunk := range chunks(tr.Requests, 8) {
		contentType, body := "text/csv", trace.AppendCSV(nil, &trace.Trace{Requests: chunk})
		if i%2 == 0 {
			v2, err := trace.AppendBinary(nil, chunk)
			if err != nil {
				t.Fatal(err)
			}
			contentType, body = trace.ContentTypeV2, v2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(tc.front.URL+"/v1/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s body: status %d", contentType, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, modelBytes(t, DefaultModelConfig(), tr.Requests)) {
		t.Fatal("merged model differs from single-node training")
	}
}

// TestIngestRefusesNegativeRetries: a CSV row with retries = -1 used to pass
// the CSV reader and fail to encode for the worker hop, which the
// coordinator took for a dead worker, three times over. It is refused at the
// door, and no worker pays for it.
func TestIngestRefusesNegativeRetries(t *testing.T) {
	tc := startCluster(t, 3, nil)
	if code, got := ingestV2(t, tc.front.URL, testTrace(t, 300, 53).Requests); code != 200 || got.Routed != 300 {
		t.Fatalf("first body: status %d, %+v", code, got)
	}
	row := "req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util,retries,failover\n" +
		"0,,0,00000,network,00000,00,,00,0,0,0,-1,\n"
	if code, _ := ingestRaw(t, tc.front.URL, "text/csv", []byte(row)); code != http.StatusBadRequest {
		t.Fatalf("status %d for a negative retry count, want 400", code)
	}
	stats := clusterStats(t, tc.front.URL)
	for i, w := range stats.Workers {
		if !w.Up {
			t.Errorf("worker %d marked down", i)
		}
	}
	if stats.Redistributed != 0 || stats.Degraded != 0 {
		t.Errorf("redistributed_total = %d, degraded_total = %d, want 0 and 0", stats.Redistributed, stats.Degraded)
	}
	if up := tc.coord.WorkersUp(); up != 3 {
		t.Errorf("workers up = %d, want 3", up)
	}
}

// TestUnencodableChunkBlamesNoWorker reaches the coordinator's own guard
// behind the readers': a chunk that does not encode is an error before
// anything is logged or sent, and no worker is killed for it.
func TestUnencodableChunkBlamesNoWorker(t *testing.T) {
	tc := startCluster(t, 3, nil)
	chunk := append([]trace.Request{}, testTrace(t, 50, 59).Requests...)
	chunk[20].Retries = -1
	routed, absorbed, err := tc.coord.routeBatch(chunk, nil)
	if err == nil || routed != 0 || absorbed != 0 {
		t.Fatalf("routeBatch = %d routed, %d absorbed, err %v; want an encode error and nothing routed", routed, absorbed, err)
	}
	stats := clusterStats(t, tc.front.URL)
	for i, w := range stats.Workers {
		if !w.Up || w.Logged != 0 {
			t.Errorf("worker %d: up=%v logged=%d, want up and nothing logged", i, w.Up, w.Logged)
		}
		if got := shardRequests(t, tc.workers[i].URL); got != 0 {
			t.Errorf("worker %d was sent %d requests", i, got)
		}
	}
	if stats.Redistributed != 0 || stats.LocalRequests != 0 {
		t.Errorf("redistributed_total = %d, local_requests = %d, want 0 and 0", stats.Redistributed, stats.LocalRequests)
	}
}

// TestRoutedCountsThisBody: "routed" is the requests of this body a worker
// took. It used to be ingested minus everything absorbed during the call,
// which goes negative when a death hands older requests to the coordinator.
func TestRoutedCountsThisBody(t *testing.T) {
	tr := testTrace(t, 301, 61)
	tc, fh := startFlakyCluster(t, 3)
	if code, got := ingestV2(t, tc.front.URL, tr.Requests[:300]); code != 200 || got != (ingestReply{300, 300, 0}) {
		t.Fatalf("first body: status %d, %+v", code, got)
	}
	fh.set(func(int, *http.Request) bool { return true })
	if code, got := ingestV2(t, tc.front.URL, tr.Requests[300:]); code != 200 || got != (ingestReply{1, 0, 1}) {
		t.Fatalf("one request with every worker dead: status %d, %+v, want 1 ingested, 0 routed, 1 absorbed", code, got)
	}
	stats := clusterStats(t, tc.front.URL)
	if stats.LocalRequests != 301 || stats.Degraded != 301 {
		t.Errorf("local_requests = %d, degraded_total = %d, want 301 and 301", stats.LocalRequests, stats.Degraded)
	}
	if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, modelBytes(t, DefaultModelConfig(), tr.Requests)) {
		t.Fatal("degraded model differs from single-node training")
	}
}

// TestLogGaugesAndRouteSpans: the log gauges follow the log up and back to
// zero at a merge, and a sampled ingest tree lists its route:worker-N
// children in member order whichever delivery finished first.
func TestLogGaugesAndRouteSpans(t *testing.T) {
	tr := testTrace(t, 600, 67)
	tc := startCluster(t, 3, func(cfg *CoordinatorConfig) {
		cfg.MergeEvery = -1
		cfg.Obs = &obs.Options{SampleEvery: 1}
	})
	var logBytes int
	for _, chunk := range chunks(tr.Requests, 4) {
		if code, _ := ingestV2(t, tc.front.URL, chunk); code != 200 {
			t.Fatalf("ingest status %d", code)
		}
	}
	tc.coord.routeMu.Lock()
	for _, m := range tc.coord.members {
		for _, body := range m.log {
			logBytes += len(body)
		}
	}
	tc.coord.routeMu.Unlock()
	_, metrics := getBody(t, tc.front.URL+"/metrics")
	for _, line := range []string{"dcmodel_cluster_log_requests 600\n", fmt.Sprintf("dcmodel_cluster_log_bytes %d\n", logBytes)} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if perReq := logBytes / 600; perReq < 50 || perReq > 400 {
		t.Errorf("the log holds %d bytes a request, want the encoded size (about 160)", perReq)
	}
	mergedModel(t, tc.front.URL)
	_, metrics = getBody(t, tc.front.URL+"/metrics")
	for _, line := range []string{"dcmodel_cluster_log_requests 0\n", "dcmodel_cluster_log_bytes 0\n", "dcmodel_cluster_checkpoint_folds_total 0\n"} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("/metrics after a merge lacks %q", line)
		}
	}

	_, body := getBody(t, tc.front.URL+"/v1/traces")
	var dump obs.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) != 4 {
		t.Fatalf("%d sampled trees, want 4", len(dump.Traces))
	}
	for _, tree := range dump.Traces {
		var names []string
		for _, child := range tree.Root.Children {
			names = append(names, child.Name)
		}
		if got := strings.Join(names, " "); tree.Root.Name != "cluster:ingest" || got != "route:worker-0 route:worker-1 route:worker-2" {
			t.Errorf("tree %d: root %q with children %q", tree.TraceID, tree.Root.Name, got)
		}
	}
}
