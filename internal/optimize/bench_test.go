package optimize

import (
	"context"
	"testing"
)

// BenchmarkProvisionSearch measures the end-to-end twin-first search:
// configs_per_sec is the sustained closed-form evaluation throughput, and
// twin_per_des is the twin-vs-DES evaluation ratio — how many closed-form
// evaluations each discrete-event validation run amortizes.
func BenchmarkProvisionSearch(b *testing.B) {
	twins := testTwins(120)
	req := Request{
		Objective: Objective{TargetSeconds: 0.05},
		Space:     wideSpace(),
	}
	var evals, desRuns int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := Search(context.Background(), Input{Twins: twins}, req)
		if err != nil {
			b.Fatal(err)
		}
		evals += plan.TwinEvals
		desRuns += plan.DESRuns + 1 // +1: the one run Provision's DES path adds
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "configs/sec")
	b.ReportMetric(float64(evals)/float64(desRuns), "twin_per_des")
}

// BenchmarkEvaluator measures the raw memoized closed-form evaluation.
func BenchmarkEvaluator(b *testing.B) {
	ev, err := NewEvaluator(testTwins(120), Objective{TargetSeconds: 0.05}, wideSpace())
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]Config, 0, 24)
	for k := 1; k <= 24; k++ {
		cfgs = append(cfgs, Config{Servers: k, Platform: "big-core", DVFS: "P0", Replicas: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalBatch(cfgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
