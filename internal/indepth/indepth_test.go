package indepth

import (
	"math/rand"
	"reflect"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/stats"
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

func TestTrainBasics(t *testing.T) {
	tr := gfsTrace(t, 2000, 800)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 {
		t.Fatalf("classes = %d", len(m.Classes))
	}
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, c := range m.Classes {
		if !reflect.DeepEqual(c.Phases, want) {
			t.Errorf("class %s phases = %v", c.Name, c.Phases)
		}
		if len(c.Service) != len(want) {
			t.Errorf("class %s has %d service fits", c.Name, len(c.Service))
		}
	}
	// The in-depth model is deliberately simple: far fewer parameters
	// than a KOOZA model would carry.
	if m.NumParams() > 50 {
		t.Errorf("in-depth params = %d, expected a small count", m.NumParams())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Train(&trace.Trace{}); err == nil {
		t.Error("empty trace should fail")
	}
	bad := &trace.Trace{Requests: []trace.Request{{ID: 1, Arrival: -1}}}
	if _, err := Train(bad); err == nil {
		t.Error("invalid trace should fail")
	}
	short := &trace.Trace{Requests: []trace.Request{{ID: 1}, {ID: 2, Arrival: 1}}}
	if _, err := Train(short); err == nil {
		t.Error("too-short trace should fail")
	}
}

func TestSynthesizeLatencyGoodFeaturesMissing(t *testing.T) {
	// The in-depth signature: per-class latency is reproduced well (it
	// resamples observed service times) but the spans carry no features.
	tr := gfsTrace(t, 3000, 801)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(802)))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, class := range tr.Classes() {
		o := stats.Mean(tr.ByClass(class).Latencies())
		s := stats.Mean(synth.ByClass(class).Latencies())
		if dev := stats.RelError(o, s); dev > 0.1 {
			t.Errorf("class %s latency deviation %g (%g vs %g)", class, dev, o, s)
		}
	}
	// Features absent.
	for _, r := range synth.Requests {
		for _, s := range r.Spans {
			if s.Bytes != 0 || s.LBN != 0 || s.Util != 0 {
				t.Fatalf("in-depth synthetic span carries features: %+v", s)
			}
		}
	}
	// Phase structure preserved.
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, r := range synth.Requests {
		if !reflect.DeepEqual(r.Phases(), want) {
			t.Fatalf("synthetic phases = %v", r.Phases())
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tr := gfsTrace(t, 500, 804)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	if _, err := m.Synthesize(0, r); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := (&Model{Interarrival: m.Interarrival}).Synthesize(5, r); err == nil {
		t.Error("no classes should fail")
	}
	zeroW := &Model{Interarrival: m.Interarrival, Classes: []*ClassModel{{Name: "x"}}}
	if _, err := zeroW.Synthesize(5, r); err == nil {
		t.Error("zero weights should fail")
	}
}

func TestArrivalRatePreserved(t *testing.T) {
	tr := gfsTrace(t, 3000, 805)
	m, err := Train(tr)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(806)))
	if err != nil {
		t.Fatal(err)
	}
	origRate := 1 / stats.Mean(tr.Interarrivals())
	synthRate := 1 / stats.Mean(synth.Interarrivals())
	if dev := stats.RelError(origRate, synthRate); dev > 0.1 {
		t.Errorf("arrival rate deviation %g", dev)
	}
}
