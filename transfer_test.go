package dcmodel

import (
	"math/rand"
	"testing"

	"dcmodel/internal/hw"
	"dcmodel/internal/stats"
)

// Platform transferability: the paper's central use case is "evaluating
// different server configurations without access to real DC application
// source-code". That requires the model, trained on platform A, to predict
// behavior on platform B. Feature-based synthesis (KOOZA) transfers: the
// synthetic workload replayed on B must match the original replayed on B.
// The in-depth baseline records platform-A durations and cannot transfer —
// the quantified version of the paper's "impedes the derivation of a
// performance model" criticism.

// slowDiskPlatform is platform B: a 4x slower disk and 10x slower network.
func slowDiskPlatform() Platform {
	return Platform{NewServer: func() *hw.Server {
		s := DefaultPlatform().NewServer()
		s.Disk.TransferRate /= 4
		s.Net.Bandwidth /= 10
		return s
	}}
}

func TestKoozaTransfersAcrossPlatforms(t *testing.T) {
	// Train on platform A.
	orig := simulate(t, 4000, 20, 40)
	m, err := Train(orig, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(4000, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth on platform B: the original workload replayed there.
	pb := slowDiskPlatform()
	truthB, err := Replay(orig, pb)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction on platform B: the synthetic workload replayed there.
	predB, err := Replay(synth, pb)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range orig.Classes() {
		truth := stats.Mean(truthB.ByClass(class).Latencies())
		pred := stats.Mean(predB.ByClass(class).Latencies())
		if d := stats.RelError(truth, pred); d > 0.15 {
			t.Errorf("class %s platform-B latency deviation %g (%g vs %g)", class, d, pred, truth)
		}
	}
	// The platform change must actually matter (the experiment is not
	// vacuous): platform B is much slower.
	onA := stats.Mean(orig.Latencies())
	onB := stats.Mean(truthB.Latencies())
	if onB < 2*onA {
		t.Fatalf("platform B too similar: %g vs %g", onB, onA)
	}
}

func TestInDepthCannotTransfer(t *testing.T) {
	// The in-depth model's synthetic spans carry durations from platform
	// A and no features; its platform-B "prediction" (its own recorded
	// timings) misses the platform change entirely.
	orig := simulate(t, 3000, 20, 42)
	id, err := Train(orig, InDepth)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := id.Synthesize(3000, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	truthB, err := Replay(orig, slowDiskPlatform())
	if err != nil {
		t.Fatal(err)
	}
	truth := stats.Mean(truthB.Latencies())
	// In-depth's only latency signal is its resampled platform-A timing.
	pred := stats.Mean(synth.Latencies())
	inDepthErr := stats.RelError(truth, pred)
	if inDepthErr < 0.4 {
		t.Fatalf("in-depth unexpectedly transferred: error %g", inDepthErr)
	}
	// KOOZA's transfer error on the same setup is far smaller.
	kz, err := Train(orig, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	ksynth, err := kz.Synthesize(3000, rand.New(rand.NewSource(44)))
	if err != nil {
		t.Fatal(err)
	}
	kpredB, err := Replay(ksynth, slowDiskPlatform())
	if err != nil {
		t.Fatal(err)
	}
	koozaErr := stats.RelError(truth, stats.Mean(kpredB.Latencies()))
	if koozaErr*3 > inDepthErr {
		t.Errorf("KOOZA transfer error %g not clearly below in-depth %g", koozaErr, inDepthErr)
	}
}
