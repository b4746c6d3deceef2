package dcmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// End-to-end integration tests of the public API: the full pipelines the
// paper's evaluation runs, with Table 2-style bounded-deviation assertions.

func simulate(t *testing.T, n int, rate float64, seed int64) *Trace {
	t.Helper()
	tr, err := Simulate(DefaultGFSConfig(), GFSRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: n, Seed: seed},
		Rate:      rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSimulateGFSValidTrace(t *testing.T) {
	tr := simulate(t, 1000, 20, 1)
	if tr.Len() != 1000 {
		t.Fatalf("trace has %d requests", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Classes()) != 2 {
		t.Fatalf("classes = %v", tr.Classes())
	}
}

func TestSimulateGFSErrors(t *testing.T) {
	if _, err := Simulate(DefaultGFSConfig(), GFSRun{RunConfig: RunConfig{Mix: Table2Mix(), Requests: 10, Seed: 1}}); err == nil {
		t.Error("missing rate should fail")
	}
	bad := DefaultGFSConfig()
	bad.Chunkservers = 0
	if _, err := Simulate(bad, GFSRun{RunConfig: RunConfig{Mix: Table2Mix(), Requests: 10, Seed: 1}, Rate: 1}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestValidatePipelineMatchesTable2Bounds(t *testing.T) {
	// The headline reproduction: synthetic features within ~1%, latency
	// within single-digit percent (the paper reports <= 1% and <= 6.6%).
	tr := simulate(t, 4000, 20, 2)
	res, err := Validate(tr, 4000, DefaultPlatform(), KoozaOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Sizes are deterministic per class: deviation ~0. Utilization is
		// stochastic: allow a slightly wider margin than the paper's 1%.
		if d := row.FeatureDeviation(); d > 0.10 {
			t.Errorf("class %s feature deviation %.1f%%, want small", row.Class, 100*d)
		}
		if d := row.LatencyDeviation(); d > 0.10 {
			t.Errorf("class %s latency deviation %.1f%%, want <= 10%%", row.Class, 100*d)
		}
		if row.MemOpOrig != row.MemOpSynth || row.StorOpOrig != row.StorOpSynth {
			t.Errorf("class %s operation types differ", row.Class)
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 2", "original", "synthetic", "variation"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if res.Model == nil || !strings.Contains(res.Model.Describe(), "KOOZA") {
		t.Error("validation should expose the trained model")
	}
}

func TestSimulateGFSClosedFacade(t *testing.T) {
	tr, err := SimulateClosed(DefaultGFSConfig(), GFSClosedRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: 500, Seed: 12},
		Users:     4, MeanThink: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("requests = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateClosed(DefaultGFSConfig(), GFSClosedRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: 10, Seed: 12},
	}); err == nil {
		t.Error("zero users should fail")
	}
	bad := DefaultGFSConfig()
	bad.Files = 0
	if _, err := SimulateClosed(bad, GFSClosedRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: 10, Seed: 12},
		Users:     1,
	}); err == nil {
		t.Error("bad config should fail")
	}
}

func TestCrossExaminePipeline(t *testing.T) {
	tr := simulate(t, 2000, 20, 4)
	scores, err := CrossExamine(tr, DefaultPlatform(), CrossExamOptions{Requests: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	var kz, ib, id Scores
	for _, s := range scores {
		switch s.Name {
		case "KOOZA":
			kz = s
		case "in-breadth":
			ib = s
		case "in-depth":
			id = s
		}
	}
	if kz.Completeness <= ib.Completeness || kz.Completeness <= id.Completeness {
		t.Errorf("KOOZA completeness %g should dominate ib %g and id %g",
			kz.Completeness, ib.Completeness, id.Completeness)
	}
	out := RenderScores(scores)
	if !strings.Contains(out, "KOOZA") || !strings.Contains(out, "Table 1") {
		t.Error("rendered scorecard incomplete")
	}
}

// TestTrainAllApproaches: Train puts each approach's own trainer behind
// the Model interface, fitted on every request of the trace.
func TestTrainAllApproaches(t *testing.T) {
	tr := simulate(t, 1500, 20, 6)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		var trainedOn int
		switch c := m.(type) {
		case koozaTrained:
			trainedOn = c.TrainedOn
		case inBreadthTrained:
			trainedOn = c.TrainedOn
		case inDepthTrained:
			trainedOn = c.TrainedOn
		default:
			t.Fatalf("%s: Train returned %T", a, m)
		}
		if trainedOn != tr.Len() {
			t.Errorf("%s: trained on %d requests, want %d", a, trainedOn, tr.Len())
		}
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	tr := simulate(t, 200, 20, 8)
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteTraceCSV(&csvBuf, tr); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.Len() != tr.Len() {
		t.Error("csv round trip lost requests")
	}
	if err := WriteTraceJSON(&jsonBuf, tr); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadTraceJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Len() != tr.Len() {
		t.Error("json round trip lost requests")
	}
}

func TestReplayFacade(t *testing.T) {
	tr := simulate(t, 300, 20, 9)
	re, err := Replay(tr, DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != tr.Len() {
		t.Error("replay lost requests")
	}
}

func TestSynthesizeViaFacadeDeterministic(t *testing.T) {
	tr := simulate(t, 1000, 20, 10)
	m, err := Train(tr, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Synthesize(100, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Synthesize(100, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i].Arrival != b.Requests[i].Arrival {
			t.Fatal("same seed should reproduce synthesis")
		}
	}
}

// TestSynthesizeConcurrent drives concurrent syntheses on one shared model
// of each family under -race: a trained model stays read-only while it
// synthesizes.
func TestSynthesizeConcurrent(t *testing.T) {
	tr := simulate(t, 1000, 20, 12)
	for _, a := range []Approach{Kooza, InBreadth, InDepth} {
		m, err := Train(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				if _, err := m.Synthesize(3000, rand.New(rand.NewSource(seed))); err != nil {
					errs <- fmt.Errorf("%v seed %d: %w", a, seed, err)
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
