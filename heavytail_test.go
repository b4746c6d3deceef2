package dcmodel

import (
	"math/rand"
	"testing"

	"dcmodel/internal/stats"
	"dcmodel/internal/workload"
)

// The Table 2 validation uses deterministic request sizes; these tests
// stress the pipeline on workloads with *distributions* of sizes, where
// matching means is not enough — the synthetic feature distributions must
// match the originals' shape (two-sample KS).

func heavyTrace(t *testing.T, mix *Mix, n int, seed int64) *Trace {
	t.Helper()
	cfg := DefaultGFSConfig()
	tr, err := Simulate(cfg, GFSRun{RunConfig: RunConfig{Mix: mix, Requests: n, Seed: seed}, Rate: 25})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestKoozaOnWebMixDistributions(t *testing.T) {
	tr := heavyTrace(t, WebMix(), 4000, 30)
	m, err := Train(tr, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(4000, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range tr.Classes() {
		o := tr.ByClass(class).SpanFeature(Storage, func(s Span) float64 { return float64(s.Bytes) })
		sy := synth.ByClass(class).SpanFeature(Storage, func(s Span) float64 { return float64(s.Bytes) })
		if len(sy) == 0 {
			t.Fatalf("class %s missing", class)
		}
		ks := stats.KSTest2(o, sy)
		if ks.Statistic > 0.06 {
			t.Errorf("class %s size-distribution KS = %g, want small", class, ks.Statistic)
		}
		// Tail fidelity: p99 sizes within 15%.
		if d := stats.RelError(stats.Quantile(o, 0.99), stats.Quantile(sy, 0.99)); d > 0.15 {
			t.Errorf("class %s p99 size deviation %g", class, d)
		}
	}
	// Latency distribution after replay: medians within 10%, p95 within 20%.
	timed, err := Replay(synth, DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	oLat, sLat := tr.Latencies(), timed.Latencies()
	if d := stats.RelError(stats.Median(oLat), stats.Median(sLat)); d > 0.10 {
		t.Errorf("median latency deviation %g", d)
	}
	if d := stats.RelError(stats.Quantile(oLat, 0.95), stats.Quantile(sLat, 0.95)); d > 0.20 {
		t.Errorf("p95 latency deviation %g", d)
	}
}

func TestKoozaOnOLTPMix(t *testing.T) {
	tr := heavyTrace(t, workload.OLTPMix(), 4000, 32)
	if got := len(tr.Classes()); got != 3 {
		t.Fatalf("classes = %d", got)
	}
	res, err := Validate(tr, 4000, DefaultPlatform(), KoozaOptions{}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if d := row.LatencyDeviation(); d > 0.15 {
			t.Errorf("class %s latency deviation %g", row.Class, d)
		}
		if row.StorOpOrig != row.StorOpSynth {
			t.Errorf("class %s storage op flipped", row.Class)
		}
	}
	// The log-append class must stay highly sequential in synthesis.
	m := res.Model
	logClass, err := m.Class("logAppend")
	if err != nil {
		t.Fatal(err)
	}
	if logClass.Storage.SeqProb < 0.7 {
		t.Errorf("logAppend sequentiality = %g, want high", logClass.Storage.SeqProb)
	}
	pageClass, err := m.Class("pageRead")
	if err != nil {
		t.Fatal(err)
	}
	if pageClass.Storage.SeqProb > 0.2 {
		t.Errorf("pageRead sequentiality = %g, want low", pageClass.Storage.SeqProb)
	}
}

func TestCrossExamineOnWebMix(t *testing.T) {
	// The Table 1 shape must hold on a heavy-tailed workload too.
	tr := heavyTrace(t, WebMix(), 2500, 34)
	scores, err := CrossExamine(tr, DefaultPlatform(), CrossExamOptions{Requests: 2500, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Scores{}
	for _, s := range scores {
		byName[s.Name] = s
	}
	kz := byName["KOOZA"]
	if kz.Completeness <= byName["in-breadth"].Completeness ||
		kz.Completeness <= byName["in-depth"].Completeness {
		t.Errorf("KOOZA completeness %g not dominant on WebMix", kz.Completeness)
	}
}
