package crossexam

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/replay"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func gfsTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: n,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildApproaches trains the three models and wraps them for evaluation.
func buildApproaches(t *testing.T, tr *trace.Trace) []Approach {
	t.Helper()
	ib, err := inbreadth.Train(tr, inbreadth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := indepth.Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	kz, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []Approach{
		{Name: "in-breadth", Synthesize: ib.Synthesize, NumParams: ib.NumParams(), Knobs: 3},
		{Name: "in-depth", Synthesize: id.Synthesize, NumParams: id.NumParams(), Knobs: 1, SelfTimed: true},
		{Name: "KOOZA", Synthesize: kz.Synthesize, NumParams: kz.NumParams(), Knobs: 5},
	}
}

func TestEvaluateReproducesTable1Shape(t *testing.T) {
	tr := gfsTrace(t, 3000, 900)
	approaches := buildApproaches(t, tr)
	scores, err := Evaluate(tr, approaches, 3000,
		replay.Platform{NewServer: gfs.DefaultServerHW}, Options{Seed: 901})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	byName := map[string]Scores{}
	for _, s := range scores {
		byName[s.Name] = s
	}
	ib, id, kz := byName["in-breadth"], byName["in-depth"], byName["KOOZA"]

	// Request features: in-breadth and KOOZA good, in-depth poor.
	if ib.RequestFeatures < 0.8 {
		t.Errorf("in-breadth features = %g, want high", ib.RequestFeatures)
	}
	if kz.RequestFeatures < 0.9 {
		t.Errorf("KOOZA features = %g, want high", kz.RequestFeatures)
	}
	if id.RequestFeatures > ib.RequestFeatures || id.RequestFeatures > kz.RequestFeatures {
		t.Errorf("in-depth features %g should be the worst (ib %g, kooza %g)",
			id.RequestFeatures, ib.RequestFeatures, kz.RequestFeatures)
	}

	// Time dependencies: in-depth and KOOZA capture the order, in-breadth
	// cannot.
	if id.TimeDependencies < 0.99 || kz.TimeDependencies < 0.99 {
		t.Errorf("in-depth/KOOZA time deps = %g/%g, want ~1", id.TimeDependencies, kz.TimeDependencies)
	}
	if ib.TimeDependencies > 0.01 {
		t.Errorf("in-breadth time deps = %g, want ~0", ib.TimeDependencies)
	}

	// Fine granularity: KOOZA best; in-depth worst (featureless).
	if kz.FineGranularity < 0.9 {
		t.Errorf("KOOZA granularity = %g", kz.FineGranularity)
	}
	if id.FineGranularity > kz.FineGranularity {
		t.Errorf("in-depth granularity %g above KOOZA %g", id.FineGranularity, kz.FineGranularity)
	}
	if ib.FineGranularity > kz.FineGranularity {
		t.Errorf("in-breadth granularity %g above KOOZA %g (per-class structure lost)", ib.FineGranularity, kz.FineGranularity)
	}

	// Completeness: KOOZA must dominate both baselines — the paper's
	// headline claim.
	if kz.Completeness <= ib.Completeness || kz.Completeness <= id.Completeness {
		t.Errorf("KOOZA completeness %g should dominate (ib %g, id %g)",
			kz.Completeness, ib.Completeness, id.Completeness)
	}
	// KOOZA latency fidelity must be high (Table 2: <= 6.6% deviation).
	if kz.LatencyFidelity < 0.85 {
		t.Errorf("KOOZA latency fidelity = %g", kz.LatencyFidelity)
	}
	// All synthesis rates positive.
	for _, s := range scores {
		if s.Scalability <= 0 {
			t.Errorf("%s scalability = %g", s.Name, s.Scalability)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	tr := gfsTrace(t, 300, 902)
	approaches := buildApproaches(t, tr)
	opts := Options{Seed: 1}
	platform := replay.Platform{NewServer: gfs.DefaultServerHW}
	if _, err := Evaluate(nil, approaches, 10, platform, opts); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Evaluate(tr, approaches, 0, platform, opts); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Evaluate(tr, []Approach{{Name: "x"}}, 10, platform, opts); err == nil {
		t.Error("missing synthesizer should fail")
	}
	failing := []Approach{{Name: "boom", Setup: func(*Approach) error {
		return errors.New("train exploded")
	}}}
	for _, workers := range []int{0, 1, 2, 4} {
		if _, err := Evaluate(tr, failing, 10, platform, Options{Seed: 1, Workers: workers}); err == nil || !strings.Contains(err.Error(), "train exploded") {
			t.Errorf("workers=%d: setup error not propagated: %v", workers, err)
		}
	}
}

// TestEvaluateDeterministicAcrossWorkers is the determinism regression of
// the parallel engine: serial (workers=1) and parallel runs of the same
// seed must return bit-identical Scores — with the reference sharing a
// worker (2), with a goroutine each (0) and with workers to spare (8).
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	tr := gfsTrace(t, 1200, 907)
	platform := replay.Platform{NewServer: gfs.DefaultServerHW}
	run := func(workers int) []Scores {
		t.Helper()
		scores, err := Evaluate(tr, buildApproaches(t, tr), 1200, platform,
			Options{Seed: 908, Workers: workers, SkipThroughput: true})
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	serial := run(1)
	for _, workers := range []int{0, 2, 8} {
		parallel := run(workers)
		if len(serial) != len(parallel) {
			t.Fatalf("workers=%d: score counts differ: %d vs %d", workers, len(serial), len(parallel))
		}
		for i := range serial {
			// Scores contains only comparable scalar fields, so == is a
			// bit-identity check.
			if serial[i] != parallel[i] {
				t.Errorf("workers=%d: %s: serial %+v != parallel %+v", workers, serial[i].Name, serial[i], parallel[i])
			}
		}
	}
}

// TestEvaluateSetupRunsInWorker verifies the lazy-training hook: Setup
// fills in the synthesizer and parameter count inside the fan-out, and the
// reported EaseOfUse reflects the trained model.
func TestEvaluateSetupRunsInWorker(t *testing.T) {
	tr := gfsTrace(t, 800, 909)
	lazy := []Approach{{
		Name:  "lazy-kooza",
		Knobs: 5,
		Setup: func(a *Approach) error {
			kz, err := kooza.Train(tr, kooza.Options{})
			if err != nil {
				return err
			}
			a.Synthesize = kz.Synthesize
			a.NumParams = kz.NumParams()
			return nil
		},
	}}
	scores, err := Evaluate(tr, lazy, 800,
		replay.Platform{NewServer: gfs.DefaultServerHW}, Options{Seed: 910, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].EaseOfUse == 0 {
		t.Error("EaseOfUse not taken from the Setup-trained model")
	}
	if scores[0].Completeness <= 0 {
		t.Error("lazy-trained approach scored zero completeness")
	}
}

func TestQualitativeTable(t *testing.T) {
	rows := QualitativeTable()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	cols := Columns()
	for _, row := range rows {
		if len(row.Marks) != len(cols) {
			t.Errorf("row %s has %d marks, want %d", row.Name, len(row.Marks), len(cols))
		}
	}
	// KOOZA checks every column.
	kz := rows[2]
	for i, m := range kz.Marks {
		if !strings.HasPrefix(m, "X") {
			t.Errorf("KOOZA column %s not checked", cols[i])
		}
	}
}

func TestDeriveQualitativeMatchesPaperShape(t *testing.T) {
	tr := gfsTrace(t, 2500, 905)
	approaches := buildApproaches(t, tr)
	scores, err := Evaluate(tr, approaches, 2500,
		replay.Platform{NewServer: gfs.DefaultServerHW}, Options{Seed: 906})
	if err != nil {
		t.Fatal(err)
	}
	derived := DeriveQualitative(scores)
	byName := map[string]QualRow{}
	for _, row := range derived {
		byName[row.Name] = row
	}
	cols := Columns()
	colIdx := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	features := colIdx("Request Features")
	timedeps := colIdx("Time Dependencies")
	complete := colIdx("Completeness")
	// The load-bearing cells of the paper's matrix must emerge from the
	// measurements alone.
	if byName["in-breadth"].Marks[features] != "X" {
		t.Error("in-breadth should earn the request-features check")
	}
	if byName["in-breadth"].Marks[timedeps] == "X" {
		t.Error("in-breadth must not earn time dependencies")
	}
	if byName["in-depth"].Marks[features] == "X" {
		t.Error("in-depth must not earn request features")
	}
	if byName["in-depth"].Marks[timedeps] != "X" {
		t.Error("in-depth should earn time dependencies")
	}
	kz := byName["KOOZA"]
	if kz.Marks[features] != "X" || kz.Marks[timedeps] != "X" || kz.Marks[complete] != "X" {
		t.Errorf("KOOZA should check features/timedeps/completeness: %v", kz.Marks)
	}
	if byName["in-breadth"].Marks[complete] == "X" || byName["in-depth"].Marks[complete] == "X" {
		t.Error("baselines must not earn completeness")
	}
}

func TestRender(t *testing.T) {
	tr := gfsTrace(t, 500, 903)
	approaches := buildApproaches(t, tr)
	scores, err := Evaluate(tr, approaches, 500,
		replay.Platform{NewServer: gfs.DefaultServerHW}, Options{Seed: 904})
	if err != nil {
		t.Fatal(err)
	}
	out := Render(scores)
	for _, want := range []string{"Table 1", "In-breadth", "In-depth", "KOOZA", "Completeness", "TimeDeps"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
