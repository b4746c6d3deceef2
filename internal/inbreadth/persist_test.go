package inbreadth

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dcmodel/internal/kooza"
	"dcmodel/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := gfsTrace(t, 1500, 910)
	m, err := Train(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model is behaviorally identical: same seed, same
	// synthetic trace.
	a, err := m.Synthesize(400, rand.New(rand.NewSource(911)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Synthesize(400, rand.New(rand.NewSource(911)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("loaded model synthesizes differently")
	}
	if loaded.NumParams() != m.NumParams() {
		t.Errorf("params %d vs %d", loaded.NumParams(), m.NumParams())
	}
	if loaded.TrainedOn != m.TrainedOn || loaded.opts != m.opts {
		t.Error("metadata lost")
	}
	if !strings.Contains(loaded.Describe(), "in-breadth model") {
		t.Error("describe broken after load")
	}
}

func TestSaveErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Error("nil model should fail")
	}
	if err := Save(&buf, &Model{}); err == nil {
		t.Error("untrained model should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("bad json should fail")
	}
	if _, err := Load(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"interarrival":{"name":"bogus"}}`)); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"interarrival":{"name":"exponential","params":[2]}}`)); err == nil {
		t.Error("missing subsystem models should fail")
	}
}

// TestLoadHierarchicalStorage loads an in-breadth model whose storage
// model is KOOZA's hierarchical one, a file Load accepts, and synthesizes
// whole requests and a standalone storage stream from it, as the model did
// before it was saved.
func TestLoadHierarchicalStorage(t *testing.T) {
	tr := gfsTrace(t, 1500, 912)
	m, err := Train(tr, Options{StorageRegions: 8})
	if err != nil {
		t.Fatal(err)
	}
	samples := kooza.NewSubsystemSamples(0, 0, 0)
	for i := range tr.Requests {
		for j := range tr.Requests[i].Spans {
			samples.Add(&tr.Requests[i].Spans[j])
		}
	}
	hier, err := samples.Train(kooza.Options{StorageRegions: 8, Hierarchical: true, HierGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Storage = hier.Storage
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Storage.Hier == nil || loaded.Storage.Chain != nil {
		t.Fatal("loaded storage model is not hierarchical")
	}
	a, err := m.Synthesize(400, rand.New(rand.NewSource(913)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Synthesize(400, rand.New(rand.NewSource(913)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("loaded hierarchical model synthesizes differently")
	}
	if len(b.SpanFeature(trace.Storage, func(trace.Span) float64 { return 0 })) == 0 {
		t.Error("no storage spans synthesized")
	}
	ios := loaded.GenerateIOStream(400, rand.New(rand.NewSource(914)))
	if !reflect.DeepEqual(ios, m.GenerateIOStream(400, rand.New(rand.NewSource(914)))) {
		t.Error("loaded hierarchical model streams differently")
	}
	for _, ev := range ios {
		if ev.LBN < 0 || ev.Bytes < 1 {
			t.Fatalf("storage stream emitted %+v", ev)
		}
	}
}
