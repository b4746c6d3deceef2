// External test package: these tests drive the exported Recorder seam
// against the GFS simulator, which itself imports dapper — keeping them
// in package dapper would create a test-only import cycle.
package dapper_test

import (
	"math/rand"
	"testing"

	"dcmodel/internal/dapper"
	"dcmodel/internal/gfs"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func gfsWorkload(t *testing.T, requests int, seed int64) *trace.Trace {
	t.Helper()
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: requests,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceWorkloadOnGFS(t *testing.T) {
	tr := gfsWorkload(t, 1000, 1)
	var c dapper.Collector
	started, sampled, err := dapper.RecordWorkload(tr, 100, &c) // Dapper-style sparse sampling
	if err != nil {
		t.Fatal(err)
	}
	if started != 1000 || sampled != 10 {
		t.Fatalf("sampling stats %d/%d", started, sampled)
	}
	trees := c.Trees()
	if len(trees) != 10 {
		t.Fatalf("trees = %d", len(trees))
	}
	for _, tree := range trees {
		if tree.Count != 7 {
			t.Errorf("GFS tree has %d spans, want 7 (root + 6 phases)", tree.Count)
		}
		back, err := dapper.ToRequest(tree)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Spans) != 6 {
			t.Errorf("reconstructed %d spans", len(back.Spans))
		}
	}
}

func TestRecordWorkloadValidation(t *testing.T) {
	var c dapper.Collector
	tr := &trace.Trace{}
	if _, _, err := dapper.RecordWorkload(tr, 0, &c); err == nil {
		t.Fatal("sampleEvery=0 accepted")
	}
	if _, _, err := dapper.RecordWorkload(tr, 1, nil); err == nil {
		t.Fatal("nil recorder accepted")
	}
	if _, _, err := dapper.RecordWorkload(nil, 1, &c); err == nil {
		t.Fatal("nil trace accepted")
	}
}

// TestGFSRecorderSeam: wiring a Recorder into the simulator must deliver
// one tree per generated request, in arrival order, without touching the
// workload's random stream — the trace with a recorder attached is
// identical to the trace without one.
func TestGFSRecorderSeam(t *testing.T) {
	run := func(rec dapper.Recorder) *trace.Trace {
		c, err := gfs.NewCluster(gfs.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Run(gfs.RunConfig{
			Mix:      workload.Table2Mix(),
			Arrivals: workload.Poisson{Rate: 20},
			Requests: 200,
			Recorder: rec,
		}, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	var col dapper.Collector
	with := run(&col)
	without := run(nil)

	if col.Len() != with.Len() {
		t.Fatalf("recorded %d trees for %d requests", col.Len(), with.Len())
	}
	for i, tree := range col.Trees() {
		if got, want := int64(tree.Root.Span.Trace)-1, with.Requests[i].ID; got != want {
			t.Fatalf("tree %d out of arrival order: request ID %d, want %d", i, got, want)
		}
	}
	if len(with.Requests) != len(without.Requests) {
		t.Fatalf("recorder perturbed the run: %d vs %d requests", len(with.Requests), len(without.Requests))
	}
	for i := range with.Requests {
		a, b := with.Requests[i], without.Requests[i]
		if a.ID != b.ID || a.Class != b.Class || a.Arrival != b.Arrival || a.Latency() != b.Latency() {
			t.Fatalf("request %d diverged with recorder attached:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestGFSClosedLoopRecorderSeam covers the closed-loop path too.
func TestGFSClosedLoopRecorderSeam(t *testing.T) {
	var col dapper.Collector
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.RunClosed(gfs.ClosedRunConfig{
		Mix:      workload.Table2Mix(),
		Users:    4,
		Requests: 100,
		Recorder: &col,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("recorded %d trees for %d requests", col.Len(), tr.Len())
	}
}
