package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dcmodel/internal/obs"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// stageCount reads dcmodeld_stage_seconds_count of one stage from /metrics;
// a stage that never ran has no series and counts 0.
func stageCount(t *testing.T, s *Server, stage string) int {
	t.Helper()
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	prefix := fmt.Sprintf("dcmodeld_stage_seconds_count{stage=%q} ", stage)
	for _, line := range strings.Split(rw.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// stagedServer is a quiet daemon with the stage histograms armed.
func stagedServer(t *testing.T) *Server {
	t.Helper()
	cfg := quietConfig()
	cfg.Obs = &obs.Options{}
	return newTestServer(t, cfg)
}

// TestComparisonModelsTrainOnFirstAsk: a retrain trains KOOZA and the drift
// reference only; each comparison model is trained by the first request of
// the generation that needs it, once, and the generation lets go of its
// prepared window when both are.
func TestComparisonModelsTrainOnFirstAsk(t *testing.T) {
	s := stagedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(whatifTrace(t, 400)); err != nil {
		t.Fatal(err)
	}
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	counts := func() [4]int {
		return [4]int{stageCount(t, s, "train.kooza"), stageCount(t, s, "train.ref"),
			stageCount(t, s, "train.inbreadth"), stageCount(t, s, "train.indepth")}
	}
	want := func(step string, w [4]int) {
		t.Helper()
		if got := counts(); got != w {
			t.Fatalf("%s: (kooza, ref, inbreadth, indepth) trainings = %v, want %v", step, got, w)
		}
	}
	want("two retrains", [4]int{2, 2, 0, 0})
	if code, body := get(t, ts.URL+"/v1/synthesize?n=20"); code != http.StatusOK {
		t.Fatalf("kooza synthesize = %d (%s)", code, body)
	}
	want("kooza synthesize", [4]int{2, 2, 0, 0})
	if code, body := get(t, ts.URL+"/v1/synthesize?n=20&model=inbreadth"); code != http.StatusOK {
		t.Fatalf("inbreadth synthesize = %d (%s)", code, body)
	}
	want("inbreadth synthesize", [4]int{2, 2, 1, 0})
	if s.model.Load().prep.Load() == nil {
		t.Fatal("the prepared window was dropped while in-depth is untrained")
	}
	if resp, body := postWhatIf(t, ts, `{"model":"indepth","query":{"load_factor":1.5}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("indepth whatif = %d (%s)", resp.StatusCode, body)
	}
	want("indepth whatif", [4]int{2, 2, 1, 1})
	if s.model.Load().prep.Load() != nil {
		t.Fatal("the generation keeps its prepared window with both comparison models trained")
	}
	if code, body := get(t, ts.URL+"/v1/characterize?n=50"); code != http.StatusOK {
		t.Fatalf("characterize = %d (%s)", code, body)
	}
	if _, ib, id, _ := s.Models(); ib == nil || id == nil {
		t.Fatal("Models() returned a nil comparison model")
	}
	want("characterize and Models", [4]int{2, 2, 1, 1})
	if err := s.Retrain(); err != nil {
		t.Fatal(err)
	}
	if _, ib, id, _ := s.Models(); ib == nil || id == nil {
		t.Fatal("Models() returned a nil comparison model")
	}
	want("a third retrain and Models", [4]int{3, 3, 2, 2})
}

// TestComparisonFirstAskSingleFlight: 16 requests asking for each comparison
// model of a fresh generation at once train it once and get the same bytes.
func TestComparisonFirstAskSingleFlight(t *testing.T) {
	s := stagedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, _, err := s.Ingest(gfsTrace(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	const asks = 16
	models := []string{"inbreadth", "indepth"}
	bodies := make([][]byte, asks*len(models))
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, fmt.Sprintf("%s/v1/synthesize?n=100&seed=5&model=%s", ts.URL, models[i%len(models)]))
			if code != http.StatusOK {
				t.Errorf("ask %d: status %d (%s)", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := len(models); i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[i%len(models)]) {
			t.Fatalf("ask %d of %s differs from the first", i, models[i%len(models)])
		}
	}
	for _, stage := range []string{"train.inbreadth", "train.indepth"} {
		if n := stageCount(t, s, stage); n != 1 {
			t.Errorf("%d concurrent first asks ran %s %d times, want once", asks, stage, n)
		}
	}
}

// regimeFlipped returns tr with the storage spans of its second half cut
// into four extents each, walking regions the first half never touches: a
// window across a drift retrain's regime flip.
func regimeFlipped(tr *trace.Trace, cfg Config) *trace.Trace {
	perRegion := cfg.DiskBlocks / int64(cfg.StorageRegions)
	out := &trace.Trace{Requests: append([]trace.Request(nil), tr.Requests...)}
	for i := len(out.Requests) / 2; i < len(out.Requests); i++ {
		var spans []trace.Span
		for _, sp := range out.Requests[i].Spans {
			if sp.Subsystem != trace.Storage {
				spans = append(spans, sp)
				continue
			}
			for k := 0; k < 4; k++ {
				ext := sp
				ext.Start = sp.Start + float64(k)*sp.Duration/4
				ext.Duration = sp.Duration / 4
				ext.Bytes = max(sp.Bytes/4, 1)
				ext.LBN = int64(cfg.StorageRegions-1-k)*perRegion + sp.LBN%perRegion
				spans = append(spans, ext)
			}
		}
		out.Requests[i].Spans = spans
	}
	return out
}

// TestComparisonTrainsWheneverKoozaDoes is the property the lazy comparison
// models rest on: every window a retrain installs a generation from is one
// the in-breadth and in-depth trainers take too, so training one on first
// use never fails where training it with the retrain succeeded.
func TestComparisonTrainsWheneverKoozaDoes(t *testing.T) {
	installed := 0
	for _, name := range spec.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			full := presetWindow(t, name, 8192, seed)
			windows := map[string]*trace.Trace{"flipped": regimeFlipped(full, DefaultConfig())}
			labels := []string{"flipped"}
			for _, n := range []int{minTrainRequests, 1024, 8192} {
				labels = append(labels, strconv.Itoa(n))
				windows[labels[len(labels)-1]] = &trace.Trace{Requests: full.Requests[:n]}
			}
			for _, label := range labels {
				window := windows[label]
				s := newTestServer(t, quietConfig())
				if retrained, _, err := s.Ingest(window); !retrained {
					t.Logf("%s seed %d window %s: no generation installed (%v)", name, seed, label, err)
					s.Close()
					continue
				}
				installed++
				ms := s.model.Load()
				if _, err := s.inBreadth(ms, nil); err != nil {
					t.Errorf("%s seed %d window %s: KOOZA trained, in-breadth: %v", name, seed, label, err)
				}
				if _, err := s.inDepth(ms, nil); err != nil {
					t.Errorf("%s seed %d window %s: KOOZA trained, in-depth: %v", name, seed, label, err)
				}
				s.Close()
			}
		}
	}
	if installed == 0 {
		t.Fatal("no window installed a generation")
	}
}
