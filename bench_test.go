package dcmodel

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md):
//
//	BenchmarkTable1CrossExamination — Table 1 (qualitative comparison,
//	    backed by measured proxies)
//	BenchmarkTable2Validation       — Table 2 (original vs synthetic
//	    request features and latency)
//	BenchmarkFigure1RequestFlow     — Figure 1 (a request's path through
//	    the GFS chunkserver)
//	BenchmarkFigure2ModelStructure  — Figure 2 (the trained KOOZA model)
//
// plus the ablation benches for the design choices DESIGN.md calls out
// (storage-state count, hierarchical storage model, the phase queue, the
// arrival-process family, CPU quantization).
//
// Each bench prints its table/figure once and reports its headline
// deviations via b.ReportMetric, so `go test -bench=. -benchmem` both
// regenerates the artifacts and times the pipelines.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dcmodel/internal/crossexam"
	"dcmodel/internal/hw"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/replay"
	"dcmodel/internal/spec"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

// benchTrace lazily builds the shared training trace (4000 requests of the
// paper's two validation classes on one chunkserver).
var benchTrace = sync.OnceValue(func() *Trace {
	tr, err := Simulate(DefaultGFSConfig(), GFSRun{
		RunConfig: RunConfig{Mix: Table2Mix(), Requests: 4000, Seed: 42},
		Rate:      20,
	})
	if err != nil {
		panic(err)
	}
	return tr
})

var printOnce sync.Map // experiment name -> *sync.Once

func printExperiment(name, body string) {
	v, _ := printOnce.LoadOrStore(name, &sync.Once{})
	v.(*sync.Once).Do(func() {
		fmt.Printf("\n===== %s =====\n%s\n", name, body)
	})
}

func BenchmarkTable2Validation(b *testing.B) {
	tr := benchTrace()
	var maxFeat, maxLat float64
	for i := 0; i < b.N; i++ {
		res, err := Validate(tr, tr.Len(), DefaultPlatform(), KoozaOptions{}, int64(100+i))
		if err != nil {
			b.Fatal(err)
		}
		maxFeat, maxLat = 0, 0
		for _, row := range res.Rows {
			if d := row.FeatureDeviation(); d > maxFeat {
				maxFeat = d
			}
			if d := row.LatencyDeviation(); d > maxLat {
				maxLat = d
			}
		}
		if i == 0 {
			printExperiment("Table 2 — KOOZA validation (paper: features <= 1%, latency <= 6.6%)", res.Render())
		}
	}
	b.ReportMetric(100*maxFeat, "feat-dev-%")
	b.ReportMetric(100*maxLat, "lat-dev-%")
}

func BenchmarkTable1CrossExamination(b *testing.B) {
	tr := benchTrace()
	var kz Scores
	for i := 0; i < b.N; i++ {
		scores, err := CrossExamine(tr, DefaultPlatform(), CrossExamOptions{Requests: tr.Len(), Seed: int64(200 + i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scores {
			if s.Name == "KOOZA" {
				kz = s
			}
		}
		if i == 0 {
			printExperiment("Table 1 — cross-examination of the three approaches", RenderScores(scores))
		}
	}
	b.ReportMetric(kz.Completeness, "kooza-completeness")
	b.ReportMetric(kz.RequestFeatures, "kooza-features")
	b.ReportMetric(kz.TimeDependencies, "kooza-timedeps")
}

func BenchmarkFigure1RequestFlow(b *testing.B) {
	var rendered string
	var phases int
	for i := 0; i < b.N; i++ {
		tr, err := Simulate(DefaultGFSConfig(), GFSRun{
			RunConfig: RunConfig{Mix: Table2Mix(), Requests: 50, Seed: int64(300 + i)},
			Rate:      20,
		})
		if err != nil {
			b.Fatal(err)
		}
		rendered = renderRequestFlow(tr)
		phases = len(tr.Requests[0].Phases())
	}
	printExperiment("Figure 1 — GFS structure: a user request's path through the chunkserver", rendered)
	b.ReportMetric(float64(phases), "phases/request")
}

// renderRequestFlow prints the measured per-phase timeline of one read and
// one write request — the regeneration of Figure 1.
func renderRequestFlow(tr *Trace) string {
	out := ""
	for _, class := range tr.Classes() {
		sub := tr.ByClass(class)
		if sub.Len() == 0 {
			continue
		}
		r := sub.Requests[0]
		out += fmt.Sprintf("%s request (latency %.3f ms):\n", class, 1000*r.Latency())
		for _, s := range r.Spans {
			detail := ""
			switch s.Subsystem {
			case Network:
				detail = fmt.Sprintf("%d B", s.Bytes)
			case CPU:
				detail = fmt.Sprintf("util %.2f%%", 100*s.Util)
			case Memory:
				detail = fmt.Sprintf("%d B %s bank %d", s.Bytes, s.Op, s.Bank)
			case Storage:
				detail = fmt.Sprintf("%d B %s LBN %d", s.Bytes, s.Op, s.LBN)
			}
			out += fmt.Sprintf("  %-8s t=%9.4f ms  dur=%8.4f ms  %s\n",
				s.Subsystem, 1000*(s.Start-r.Arrival), 1000*s.Duration, detail)
		}
	}
	return out
}

func BenchmarkFigure2ModelStructure(b *testing.B) {
	tr := benchTrace()
	var m Model
	for i := 0; i < b.N; i++ {
		var err error
		m, err = Train(tr, Kooza)
		if err != nil {
			b.Fatal(err)
		}
	}
	printExperiment("Figure 2 — the trained KOOZA model (four models + time-dependency queue)", m.Characterize())
	b.ReportMetric(float64(m.NumParams()), "params")
}

// ---- Ablations ----

// latencyDeviation runs train -> synthesize -> replay with the given
// options and returns the worst per-class mean-latency deviation.
func latencyDeviation(b *testing.B, tr *Trace, opts KoozaOptions, seed int64) float64 {
	b.Helper()
	m, err := Train(tr, Kooza, WithKoozaOptions(opts))
	if err != nil {
		b.Fatal(err)
	}
	synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	timed, err := Replay(synth, DefaultPlatform())
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	for _, class := range tr.Classes() {
		o := stats.Mean(tr.ByClass(class).Latencies())
		s := stats.Mean(timed.ByClass(class).Latencies())
		if d := stats.RelError(o, s); d > worst {
			worst = d
		}
	}
	return worst
}

func BenchmarkAblationStorageRegions(b *testing.B) {
	tr := benchTrace()
	for _, regions := range []int{4, 16, 32, 128} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			var dev float64
			var params int
			for i := 0; i < b.N; i++ {
				opts := KoozaOptions{StorageRegions: regions}
				dev = latencyDeviation(b, tr, opts, int64(400+i))
				m, err := Train(tr, Kooza, WithKoozaOptions(opts))
				if err != nil {
					b.Fatal(err)
				}
				params = m.NumParams()
			}
			b.ReportMetric(100*dev, "lat-dev-%")
			b.ReportMetric(float64(params), "params")
		})
	}
}

func BenchmarkAblationHierarchicalStorage(b *testing.B) {
	tr := benchTrace()
	for _, hier := range []bool{false, true} {
		name := "flat"
		if hier {
			name = "hierarchical"
		}
		b.Run(name, func(b *testing.B) {
			var dev float64
			var params int
			for i := 0; i < b.N; i++ {
				opts := KoozaOptions{StorageRegions: 64, Hierarchical: hier}
				dev = latencyDeviation(b, tr, opts, int64(500+i))
				m, err := Train(tr, Kooza, WithKoozaOptions(opts))
				if err != nil {
					b.Fatal(err)
				}
				params = m.NumParams()
			}
			b.ReportMetric(100*dev, "lat-dev-%")
			b.ReportMetric(float64(params), "params")
		})
	}
}

func BenchmarkAblationCPUStates(b *testing.B) {
	tr := benchTrace()
	for _, states := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("states=%d", states), func(b *testing.B) {
			var utilDev float64
			for i := 0; i < b.N; i++ {
				m, err := Train(tr, Kooza, WithCPUStates(states))
				if err != nil {
					b.Fatal(err)
				}
				synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(600+i))))
				if err != nil {
					b.Fatal(err)
				}
				utilDev = 0
				for _, class := range tr.Classes() {
					o := stats.Mean(tr.ByClass(class).SpanFeature(trace.CPU, func(s Span) float64 { return s.Util }))
					sy := stats.Mean(synth.ByClass(class).SpanFeature(trace.CPU, func(s Span) float64 { return s.Util }))
					if d := stats.RelError(o, sy); d > utilDev {
						utilDev = d
					}
				}
			}
			b.ReportMetric(100*utilDev, "util-dev-%")
		})
	}
}

func BenchmarkAblationPhaseQueue(b *testing.B) {
	// Isolates the contribution of the time-dependency queue: KOOZA (with
	// the queue) vs the in-breadth model (same subsystem models, no
	// structure) on per-class latency fidelity.
	tr := benchTrace()
	b.Run("with-queue-kooza", func(b *testing.B) {
		var dev float64
		for i := 0; i < b.N; i++ {
			dev = latencyDeviation(b, tr, KoozaOptions{}, int64(700+i))
		}
		b.ReportMetric(100*dev, "lat-dev-%")
	})
	b.Run("without-queue-inbreadth", func(b *testing.B) {
		var dev float64
		for i := 0; i < b.N; i++ {
			m, err := Train(tr, InBreadth)
			if err != nil {
				b.Fatal(err)
			}
			synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(710+i))))
			if err != nil {
				b.Fatal(err)
			}
			timed, err := Replay(synth, DefaultPlatform())
			if err != nil {
				b.Fatal(err)
			}
			pooled := stats.Mean(timed.Latencies())
			dev = 0
			for _, class := range tr.Classes() {
				o := stats.Mean(tr.ByClass(class).Latencies())
				if d := stats.RelError(o, pooled); d > dev {
					dev = d
				}
			}
		}
		b.ReportMetric(100*dev, "lat-dev-%")
	})
}

func BenchmarkAblationArrivalProcess(b *testing.B) {
	// How well does the network queueing model's KS-selected fit track
	// different true arrival processes (Sengupta's non-Poisson warning)?
	arrivalCases := []struct {
		name string
		arr  Arrivals
	}{
		{"poisson", workload.Poisson{Rate: 20}},
		{"mmpp", workload.MMPP2{Rate: [2]float64{50, 5}, Hold: [2]float64{1, 2}}},
		{"selfsimilar", workload.SelfSimilar{Sources: 16, OnRate: 5, MeanOn: 1, MeanOff: 3, Alpha: 1.4}},
	}
	for _, tc := range arrivalCases {
		for _, arrivalStates := range []int{1, 4} {
			name := tc.name + "/renewal"
			if arrivalStates > 1 {
				name = tc.name + "/semi-markov"
			}
			b.Run(name, func(b *testing.B) {
				tr, err := Simulate(DefaultGFSConfig(), GFSRun{
					RunConfig: RunConfig{Mix: Table2Mix(), Requests: 4000, Seed: 800},
					Arrivals:  tc.arr,
				})
				if err != nil {
					b.Fatal(err)
				}
				origIDC := stats.IndexOfDispersion(tr.Arrivals(), 1)
				var rateErr, idcErr float64
				for i := 0; i < b.N; i++ {
					m, err := Train(tr, Kooza, WithKoozaOptions(KoozaOptions{ArrivalStates: arrivalStates}))
					if err != nil {
						b.Fatal(err)
					}
					synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(810+i))))
					if err != nil {
						b.Fatal(err)
					}
					origRate := 1 / stats.Mean(tr.Interarrivals())
					synthRate := 1 / stats.Mean(synth.Interarrivals())
					rateErr = stats.RelError(origRate, synthRate)
					idcErr = stats.RelError(origIDC, stats.IndexOfDispersion(synth.Arrivals(), 1))
				}
				b.ReportMetric(100*rateErr, "rate-dev-%")
				b.ReportMetric(100*idcErr, "IDC-dev-%")
			})
		}
	}
}

func BenchmarkAblationMarkovOrder(b *testing.B) {
	// The detail/complexity trade-off at the chain level: order-1 vs
	// order-2 storage-region chains on held-out likelihood and parameter
	// count.
	tr := benchTrace()
	const regions = 16
	regionSeq := func(t *Trace) []int {
		var lbns []float64
		var maxLBN float64
		lbns = t.SpanFeature(trace.Storage, func(s Span) float64 { return float64(s.LBN) })
		for _, l := range lbns {
			if l > maxLBN {
				maxLBN = l
			}
		}
		per := (maxLBN + 1) / regions
		seq := make([]int, len(lbns))
		for i, l := range lbns {
			st := int(l / per)
			if st >= regions {
				st = regions - 1
			}
			seq[i] = st
		}
		return seq
	}
	trainSeq := regionSeq(tr)
	held, err := Simulate(DefaultGFSConfig(), GFSRun{RunConfig: RunConfig{Mix: Table2Mix(), Requests: 1000, Seed: 43}, Rate: 20})
	if err != nil {
		b.Fatal(err)
	}
	heldSeq := regionSeq(held)
	for _, order := range []int{1, 2} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			var ll float64
			var params int
			for i := 0; i < b.N; i++ {
				m, err := markov.TrainOrderK([][]int{trainSeq}, regions, order, 0.01)
				if err != nil {
					b.Fatal(err)
				}
				ll = m.LogLikelihood(heldSeq) / float64(len(heldSeq))
				params = m.NumParams()
			}
			b.ReportMetric(ll, "heldout-loglik")
			b.ReportMetric(float64(params), "params")
		})
	}
}

func BenchmarkAblationPlatformTransfer(b *testing.B) {
	// Train on platform A, predict on a slower platform B (4x slower
	// disk, 10x slower network). KOOZA's feature-based synthesis
	// transfers; in-depth's recorded timings cannot — the paper's central
	// applicability argument, quantified.
	tr := benchTrace()
	slowPlatform := Platform{NewServer: func() *hw.Server {
		s := DefaultPlatform().NewServer()
		s.Disk.TransferRate /= 4
		s.Net.Bandwidth /= 10
		return s
	}}
	truthB, err := Replay(tr, slowPlatform)
	if err != nil {
		b.Fatal(err)
	}
	truth := stats.Mean(truthB.Latencies())
	b.Run("kooza", func(b *testing.B) {
		var devSum float64
		for i := 0; i < b.N; i++ {
			m, err := Train(tr, Kooza)
			if err != nil {
				b.Fatal(err)
			}
			synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(950+i))))
			if err != nil {
				b.Fatal(err)
			}
			predB, err := Replay(synth, slowPlatform)
			if err != nil {
				b.Fatal(err)
			}
			devSum += stats.RelError(truth, stats.Mean(predB.Latencies()))
		}
		b.ReportMetric(100*devSum/float64(b.N), "transfer-dev-%")
	})
	b.Run("indepth", func(b *testing.B) {
		var devSum float64
		for i := 0; i < b.N; i++ {
			m, err := Train(tr, InDepth)
			if err != nil {
				b.Fatal(err)
			}
			synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(960+i))))
			if err != nil {
				b.Fatal(err)
			}
			devSum += stats.RelError(truth, stats.Mean(synth.Latencies()))
		}
		b.ReportMetric(100*devSum/float64(b.N), "transfer-dev-%")
	})
}

func BenchmarkScalingServers(b *testing.B) {
	// The paper: "Scaling to multiple servers in order to simulate
	// real-application scenarios requires multiple instances of the
	// model." Train on an N-server trace, synthesize, replay on N
	// servers; report the pipeline wall-clock and the latency fidelity at
	// each scale.
	for _, servers := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			cfg := DefaultGFSConfig()
			cfg.Chunkservers = servers
			cfg.PopularitySkew = 0
			tr, err := Simulate(cfg, GFSRun{
				RunConfig: RunConfig{Mix: Table2Mix(), Requests: 2000, Seed: int64(900 + servers)},
				Rate:      20 * float64(servers),
			})
			if err != nil {
				b.Fatal(err)
			}
			var dev float64
			for i := 0; i < b.N; i++ {
				m, err := Train(tr, Kooza)
				if err != nil {
					b.Fatal(err)
				}
				synth, err := m.Synthesize(tr.Len(), rand.New(rand.NewSource(int64(910+i))))
				if err != nil {
					b.Fatal(err)
				}
				timed, err := Replay(synth, DefaultPlatform())
				if err != nil {
					b.Fatal(err)
				}
				dev = 0
				for _, class := range tr.Classes() {
					o := stats.Mean(tr.ByClass(class).Latencies())
					s := stats.Mean(timed.ByClass(class).Latencies())
					if d := stats.RelError(o, s); d > dev {
						dev = d
					}
				}
			}
			b.ReportMetric(100*dev, "lat-dev-%")
		})
	}
}

func BenchmarkGFSSimulator(b *testing.B) {
	// Raw substrate throughput: requests simulated per second.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(DefaultGFSConfig(), GFSRun{
			RunConfig: RunConfig{Mix: Table2Mix(), Requests: 1000, Seed: int64(i)},
			Rate:      20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKoozaTrain(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kooza.Train(tr, kooza.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInBreadthTrain(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inbreadth.Train(tr, inbreadth.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInDepthTrain(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := indepth.Train(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitBest times the arrival fit every trainer starts with, on two
// shapes of gaps: exponential ones of a full daemon window (8192 requests),
// and the gaps of the six presets at seed 1 (5000 requests each, one fit
// per preset and iteration), as the offline pipeline fits them.
func BenchmarkFitBest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	exp := make([]float64, 8191)
	for i := range exp {
		exp[i] = r.ExpFloat64() / 20
	}
	var presets [][]float64
	for _, name := range spec.Names() {
		presets = append(presets, presetTrace(b, name, 5000, 1).Interarrivals())
	}
	for _, shape := range []struct {
		name string
		gaps [][]float64
	}{{"exponential", [][]float64{exp}}, {"presets", presets}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, gaps := range shape.gaps {
					if _, err := stats.FitBest(gaps); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCrossexamEvaluate times the scorer alone, as /v1/characterize
// runs it: warm models, 2000 synthetic requests per approach, one worker.
func BenchmarkCrossexamEvaluate(b *testing.B) {
	tr := benchTrace()
	kz, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ib, err := inbreadth.Train(tr, inbreadth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	id, err := indepth.Train(tr)
	if err != nil {
		b.Fatal(err)
	}
	approaches := []crossexam.Approach{
		{Name: "in-breadth", Knobs: 3, Synthesize: ib.SynthesizeBatch, NumParams: ib.NumParams()},
		{Name: "in-depth", Knobs: 1, SelfTimed: true, Synthesize: id.SynthesizeBatch, NumParams: id.NumParams()},
		{Name: "KOOZA", Knobs: 5, Synthesize: kz.SynthesizeBatch, NumParams: kz.NumParams()},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crossexam.Evaluate(tr, approaches, 2000, DefaultPlatform(), crossexam.Options{Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKoozaSynthesize(b *testing.B) {
	tr := benchTrace()
	m, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Synthesize(1000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKoozaSynthesizeBatch is the slab-reserving batch flavor of
// BenchmarkKoozaSynthesize (same seed, byte-identical output); the perf
// record (benchmark/README.md) times it as kooza.synth_ns_per_req.
func BenchmarkKoozaSynthesizeBatch(b *testing.B) {
	tr := benchTrace()
	m, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SynthesizeBatch(1000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthTable2Scale times pure KOOZA synthesis at the scale of the
// Table 2 validation run (the full 4000-request training-trace length),
// where the O(1) samplers pay off (EXPERIMENTS.md, Performance).
func BenchmarkSynthTable2Scale(b *testing.B) {
	tr := benchTrace()
	m, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Synthesize(tr.Len(), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthTable2ScaleBatch is the batch flavor of
// BenchmarkSynthTable2Scale: the path the daemon, the sharded facade and
// cmd/synth actually run since trace-v2 landed.
func BenchmarkSynthTable2ScaleBatch(b *testing.B) {
	tr := benchTrace()
	m, err := kooza.Train(tr, kooza.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SynthesizeBatch(tr.Len(), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCrossExamination times the full three-approach chain
// (train -> synthesize -> replay -> score) at several worker counts. The
// output is identical at every worker count (see the determinism tests);
// only the wall clock changes. On a 4-core machine workers=4 should beat
// workers=1 by >= 1.8x: the three chains are independent, and in-breadth
// and KOOZA dominate the serial runtime about equally.
func BenchmarkParallelCrossExamination(b *testing.B) {
	tr := benchTrace()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CrossExamine(tr, DefaultPlatform(), CrossExamOptions{Requests: tr.Len(), Seed: int64(1000 + i),
					Workers: workers, SkipThroughput: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedGFS times the sharded cluster simulator at several worker
// counts; with 8 shards the output trace is byte-identical across worker
// counts and the parallel speedup tracks the core count.
func BenchmarkShardedGFS(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(DefaultGFSConfig(), GFSRun{
					RunConfig: RunConfig{Mix: Table2Mix(), Requests: 8000,
						Seed: int64(1100 + i), Shards: 8, Workers: workers},
					Rate: 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(tr, replay.Platform{NewServer: DefaultPlatform().NewServer}); err != nil {
			b.Fatal(err)
		}
	}
}
