package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/obs"
	"dcmodel/internal/optimize"
)

var updateEnvelope = flag.Bool("update-envelope", false, "regenerate the query-envelope golden file under testdata/")

// provisionBody is a small, fast search request: a generous SLO over a
// narrow space, with the DES budgets cut down so validation stays cheap.
const provisionBody = `{"request":{"objective":{"target_seconds":0.5},"space":{"max_servers":8},"validate_tasks":2000,"validate_samples":2000}}`

// postProvision sends one provisioning request and returns the raw response.
func postProvision(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/provision", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestProvisionEndpoint covers the request contract of /v1/provision: cold
// and bad inputs are rejected with the right statuses, a warm daemon
// answers with a full plan, and infeasibility is in-band — 200 with
// plan.feasible false — exactly like what-if saturation.
func TestProvisionEndpoint(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold daemon: 503, like the other query endpoints.
	resp, _ := postProvision(t, ts, provisionBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold provision status = %d, want 503", resp.StatusCode)
	}

	// GET before any auto-reprovision run: nothing published yet.
	getResp, err := http.Get(ts.URL + "/v1/provision")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET provision status = %d, want 404 before any auto plan", getResp.StatusCode)
	}

	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		`{`,                   // malformed JSON
		`{"unknown_field":1}`, // unknown field
		`{"model":"mystery","request":{"objective":{"target_seconds":1}}}`,              // unknown model
		`{"request":{"spec":"mapreduce","objective":{"target_seconds":1}}}`,             // offline-only spec
		`{"request":{"model":"kooza","objective":{"target_seconds":1}}}`,                // offline-only model field
		`{"request":{"objective":{"target_seconds":-1}}}`,                               // invalid objective
		`{"request":{"objective":{"target_seconds":1},"space":{"platforms":["vax"]}}}`,  // unknown platform
		`{"request":{"objective":{"target_seconds":1},"space":{"dvfs_states":["P7"]}}}`, // unknown DVFS state
		`{"request":{"objective":{"target_seconds":1},"strategy":"coordinate"}}`,        // no search to pick
		`{"request":{"objective":{"target_seconds":1},"initial_population":[]}}`,        // no population to seed
	} {
		resp, body := postProvision(t, ts, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("provision %s status = %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}

	resp, body := postProvision(t, ts, provisionBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provision status = %d (%s), want 200", resp.StatusCode, body)
	}
	var out struct {
		Model     string `json:"model"`
		TrainedOn int    `json:"trained_on"`
		Request   struct {
			Seed int64 `json:"seed"`
		} `json:"request"`
		Plan optimize.Plan `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("provision decode: %v\n%s", err, body)
	}
	if out.Model != "kooza" || out.TrainedOn != 400 {
		t.Errorf("provision envelope header = %q/%d, want kooza/400", out.Model, out.TrainedOn)
	}
	if out.Request.Seed != 1 {
		t.Errorf("provision echoed request not defaulted: %+v", out.Request)
	}
	if !out.Plan.Feasible || out.Plan.Chosen.Servers < 1 {
		t.Errorf("provision plan not feasible: %+v", out.Plan.Chosen)
	}
	if out.Plan.Validated == nil || !out.Plan.Validated.Passed {
		t.Errorf("provision plan missing a passing DES validation: %+v", out.Plan.Validated)
	}
	if out.Plan.TwinEvals <= out.Plan.DESRuns || out.Plan.DESRuns < 1 {
		t.Errorf("twin-first inversion: twin_evals=%d des_runs=%d", out.Plan.TwinEvals, out.Plan.DESRuns)
	}

	// An impossible SLO is an answer, not an error: 200 with feasible=false
	// and the closest miss, mirroring what-if's in-band saturation.
	resp, body = postProvision(t, ts, `{"request":{"objective":{"target_seconds":1e-9},"space":{"max_servers":4}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infeasible provision status = %d (%s), want 200 with feasible=false", resp.StatusCode, body)
	}
	var infeasible struct {
		Plan optimize.Plan `json:"plan"`
	}
	if err := json.Unmarshal(body, &infeasible); err != nil {
		t.Fatal(err)
	}
	if infeasible.Plan.Feasible {
		t.Error("impossible SLO reported feasible")
	}
	if infeasible.Plan.Chosen.Servers < 1 || len(infeasible.Plan.Trail) == 0 {
		t.Errorf("infeasible plan lost its closest miss or audit trail: %+v", infeasible.Plan.Chosen)
	}
}

// TestProvisionByteStable pins the wire determinism contract shared with
// /v1/whatif: the same request against the same warm generation returns
// byte-identical plans, every time — the search is seed-stable and the DES
// validation seeds derive from configuration fingerprints, not run order.
func TestProvisionByteStable(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		provisionBody,
		`{"request":{"objective":{"target_seconds":0.5},"space":{"max_servers":8},"workers":4,"validate_tasks":2000,"validate_samples":2000}}`,
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			resp, b := postProvision(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("provision %s status = %d (%s)", body, resp.StatusCode, b)
			}
			if i == 0 {
				first = b
				continue
			}
			if !bytes.Equal(b, first) {
				t.Fatalf("provision %s response drifted between calls:\n%s\nvs\n%s", body, first, b)
			}
		}
	}
}

// cutCtx is the context of a request cancelled while its search runs: its
// first Err, which the search asks inside the cache's flight, calls during
// and then, like every later one, reports the request cancelled.
type cutCtx struct {
	context.Context
	once   sync.Once
	during func()
}

func (c *cutCtx) Err() error {
	c.once.Do(c.during)
	return context.Canceled
}

// TestProvisionFlightCancelled: a search cut off by its request's context
// is no answer for a live request waiting on the same search. Each round, on
// a fresh generation, the cut request starts the search and a live request
// with the same body joins it before the cut request's context ends; the
// live request must answer 200.
func TestProvisionFlightCancelled(t *testing.T) {
	s := newTestServer(t, quietConfig())
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	req := provisionRequest{Model: "kooza"}
	if err := json.Unmarshal([]byte(provisionBody), &req); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		if err := s.Retrain(); err != nil {
			t.Fatal(err)
		}
		ms := s.model.Load()
		joined := make(chan struct{})
		ms.cache.onJoin = func(key any) {
			if _, ok := key.(provKey); ok {
				close(joined)
			}
		}
		live := make(chan answer, 1)
		cut := &cutCtx{Context: context.Background(), during: func() {
			go func() { live <- s.provision(context.Background(), nil, ms, req) }()
			<-joined
		}}
		cutAnswer := s.provision(cut, nil, ms, req)
		if a := <-live; a.code != http.StatusOK {
			t.Fatalf("round %d: the live request answered %d (%s), want 200", round, a.code, a.body)
		}
		if cutAnswer.code != 0 {
			t.Fatalf("round %d: the cut request answered %d (%s), want no answer", round, cutAnswer.code, cutAnswer.body)
		}
	}
}

// TestProvisionStageSpans asserts, with the daemon's own stage metrics,
// that a provisioning search runs the compile/characterize/search stages
// and — unlike the what-if fast path — rides the bounded work queue.
func TestProvisionStageSpans(t *testing.T) {
	cfg := quietConfig()
	o := obs.DefaultOptions()
	cfg.Obs = &o
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	resp, body := postProvision(t, ts, provisionBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("provision status = %d (%s)", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	for _, want := range []string{
		`stage="queue.wait"`,
		`stage="provision.compile"`,
		`stage="provision.characterize"`,
		`stage="provision.search"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s after a provisioning search", want)
		}
	}
	if !strings.Contains(metrics, "dcmodeld_provision_total 1") {
		t.Error("metrics missing dcmodeld_provision_total 1 after a successful search")
	}
}

// jsonShape flattens a decoded JSON value into sorted "path kind" lines —
// the structural skeleton of a response, independent of its numbers.
func jsonShape(prefix string, v any, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		out[prefix] = "object"
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			jsonShape(prefix+"."+k, x[k], out)
		}
	case []any:
		out[prefix] = "array"
		if len(x) > 0 {
			jsonShape(prefix+"[]", x[0], out)
		}
	case float64:
		out[prefix] = "number"
	case string:
		out[prefix] = "string"
	case bool:
		out[prefix] = "bool"
	default:
		out[prefix] = "null"
	}
}

// TestQueryEnvelopeGolden pins the shared envelope conventions of the two
// query endpoints: /v1/whatif and /v1/provision answer with the same
// model/trained_on header, echo their (defaulted) input, and carry the
// result — answer and plan respectively — with in-band degradation flags
// (answer.stable, plan.feasible). The full structural skeleton of both
// responses is golden-pinned so an envelope change to either endpoint is a
// deliberate, reviewed act.
func TestQueryEnvelopeGolden(t *testing.T) {
	s := newTestServer(t, quietConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}

	shapes := map[string]map[string]string{}
	for name, post := range map[string]func() (*http.Response, []byte){
		"whatif":    func() (*http.Response, []byte) { return postWhatIf(t, ts, `{"query":{"load_factor":2}}`) },
		"provision": func() (*http.Response, []byte) { return postProvision(t, ts, provisionBody) },
	} {
		resp, body := post()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d (%s)", name, resp.StatusCode, body)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		shape := map[string]string{}
		jsonShape("$", v, shape)
		shapes[name] = shape
	}

	// The conventions both envelopes share, asserted directly so a golden
	// regeneration cannot silently drop them.
	for name, result := range map[string]string{"whatif": "answer", "provision": "plan"} {
		shape := shapes[name]
		if shape["$.model"] != "string" || shape["$.trained_on"] != "number" {
			t.Errorf("%s envelope lost its model/trained_on header: %v %v", name, shape["$.model"], shape["$.trained_on"])
		}
		if shape["$."+result] != "object" {
			t.Errorf("%s envelope lost its %s result object", name, result)
		}
	}
	if shapes["whatif"]["$.answer.stable"] != "bool" {
		t.Error("whatif lost its in-band answer.stable flag")
	}
	if shapes["provision"]["$.plan.feasible"] != "bool" {
		t.Error("provision lost its in-band plan.feasible flag")
	}

	var lines []string
	for _, name := range []string{"whatif", "provision"} {
		paths := make([]string, 0, len(shapes[name]))
		for p := range shapes[name] {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			lines = append(lines, fmt.Sprintf("%s %s %s", name, p, shapes[name][p]))
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "envelope.golden")
	if *updateEnvelope {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve/ -run QueryEnvelopeGolden -update-envelope` to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("query envelope drifted from the golden skeleton (re-run with -update-envelope only if the change is intentional)\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAutoReprovisionOnDrift is the closed-loop acceptance test: a daemon
// armed with an AutoProvision request re-runs the provisioning search when
// the drift trigger swaps in a fresh model generation, publishes the plan
// on GET /v1/provision — and serving traffic rides through the whole episode
// with zero dropped requests, because the search runs beside the work
// queue, not on it.
func TestAutoReprovisionOnDrift(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 256
	cfg.RetrainMin = 32
	cfg.DriftP = 0.01
	cfg.DriftMinTransitions = 64
	cfg.StorageRegions = 8
	cfg.DiskBlocks = 8000
	cfg.AutoProvision = &optimize.Request{
		Objective:       optimize.Objective{TargetSeconds: 1},
		Space:           optimize.Space{MaxServers: 4},
		ValidateTasks:   2000,
		ValidateSamples: 2000,
	}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	regimeA := []int{0, 1, 2}
	regimeB := []int{5, 6, 7}

	// Warm up on regime A; in-distribution traffic must not reprovision.
	if _, _, err := s.Ingest(regimeTrace(128, regimeA, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Ingest(regimeTrace(64, regimeA, 128)); err != nil {
		t.Fatal(err)
	}
	if s.autoPlan.Load() != nil {
		t.Fatal("auto plan published before any drift retrain")
	}

	// In-flight query traffic, running across the drift episode.
	const clients, queriesEach = 8 * 5, 1
	var wg sync.WaitGroup
	codes := make(chan int, clients*queriesEach)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < queriesEach; j++ {
				resp, err := http.Post(ts.URL+"/v1/whatif", "application/json",
					strings.NewReader(`{"query":{"load_factor":1}}`))
				if err != nil {
					codes <- -1
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}()
	}

	// Distribution shift: the drift trigger must retrain AND reprovision.
	retrained, reason, err := s.Ingest(regimeTrace(64, regimeB, 192))
	if err != nil {
		t.Fatal(err)
	}
	if !retrained || reason != ReasonDrift {
		t.Fatalf("shifted batch: retrained=%v reason=%q, want drift", retrained, reason)
	}

	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("in-flight whatif dropped during auto-reprovision: status %d", code)
		}
	}

	// The search runs on its own goroutine, counted in provWG before the
	// drift retrain's Ingest returned: once it is done, the plan is out.
	s.provWG.Wait()
	last := s.autoPlan.Load()
	if last == nil {
		t.Fatal("no auto-reprovision plan published by the drift retrain's search")
	}
	plan := last.Plan
	if plan.TwinEvals == 0 || len(plan.Trail) == 0 {
		t.Errorf("auto plan has no audit trail: twin_evals=%d trail=%d", plan.TwinEvals, len(plan.Trail))
	}

	// The published plan is served on GET /v1/provision.
	resp, err := http.Get(ts.URL + "/v1/provision")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET provision status = %d (%s), want 200 after auto-reprovision", resp.StatusCode, body)
	}
	var out struct {
		Model     string        `json:"model"`
		TrainedOn int           `json:"trained_on"`
		Plan      optimize.Plan `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET provision decode: %v\n%s", err, body)
	}
	if out.Model != "kooza" || out.TrainedOn == 0 {
		t.Errorf("auto plan envelope = %q/%d, want kooza model trained on the drifted window", out.Model, out.TrainedOn)
	}
}
