// Package crossexam is the quantitative harness behind the paper's Table 1:
// it trains the three modeling approaches (in-breadth, in-depth, KOOZA) on
// the same trace, synthesizes workloads from each, and scores them on
// measurable proxies of the table's seven criteria — request features,
// time dependencies, configurability, fine granularity, scalability,
// ease-of-use and completeness — alongside the paper's qualitative
// check-marks.
package crossexam

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"dcmodel/internal/par"
	"dcmodel/internal/prand"
	"dcmodel/internal/replay"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// Approach wraps one modeling approach for evaluation.
type Approach struct {
	// Name labels the approach ("in-breadth", "in-depth", "KOOZA").
	Name string
	// Setup, when non-nil, runs inside the approach's worker before
	// synthesis — typically model training, filling in Synthesize and
	// NumParams — so the expensive train stage of every approach's
	// train→synth→replay→score chain participates in the fan-out.
	Setup func(a *Approach) error
	// Synthesize generates n synthetic requests. It must be safe for
	// concurrent use with distinct *rand.Rand instances (trained models
	// are read-only after Train).
	Synthesize func(n int, r *rand.Rand) (*trace.Trace, error)
	// NumParams is the trained model's parameter count (ease-of-use).
	NumParams int
	// Knobs is the number of configurable detail knobs (configurability).
	Knobs int
	// SelfTimed marks approaches whose synthetic spans already carry
	// durations (in-depth); others are replayed on the platform.
	SelfTimed bool
	// Twin, when non-nil (typically filled by Setup alongside Synthesize),
	// is the approach's analytical queueing twin. Evaluate scores its
	// closed-form mean response at the trained operating point against the
	// discrete-event result as TwinDeviation; approaches without a twin
	// report -1 there.
	Twin *twin.Twin
}

// Options configures Evaluate.
type Options struct {
	// Seed is the master seed. Approach i synthesizes with its own
	// rand stream derived via SplitMix64 (prand.Derive(Seed, i)), so the
	// scorecard is a fixed function of (trace, approaches, n, Seed) —
	// independent of Workers and of goroutine scheduling.
	Seed int64
	// Workers bounds the goroutines Evaluate runs on. The original trace's
	// reference side is one more task beside the approach chains and
	// holds a worker until it is done: <= 0 gives the reference and every
	// chain a goroutine of its own, 1 is the serial fallback.
	Workers int
	// SkipThroughput zeroes the wall-clock Scalability measurement (the
	// only non-deterministic scorecard entry), making the returned Scores
	// bit-identical across runs and worker counts.
	SkipThroughput bool
}

// Scores is the measured scorecard of one approach. The JSON field tags
// are a stable wire contract: the dcmodeld /v1/characterize response, the
// crossexam -json output and any recorded scorecard artifacts all share
// this one snake_case encoding.
type Scores struct {
	Name string `json:"name"`
	// RequestFeatures is 1 - mean two-sample-KS distance over the
	// subsystem feature distributions (1 = perfect).
	RequestFeatures float64 `json:"request_features"`
	// TimeDependencies is the fraction of synthetic requests whose phase
	// order matches the original class's order.
	TimeDependencies float64 `json:"time_dependencies"`
	// Configurability is the detail-knob count.
	Configurability int `json:"configurability"`
	// FineGranularity is the per-class feature fidelity (1 - mean KS of
	// per-class storage sizes).
	FineGranularity float64 `json:"fine_granularity"`
	// Scalability is the synthesis throughput in requests/second.
	Scalability float64 `json:"scalability_req_per_s"`
	// EaseOfUse is the model parameter count (lower = simpler).
	EaseOfUse int `json:"ease_of_use_params"`
	// LatencyFidelity is 1 - mean per-class relative latency error
	// (clamped at 0).
	LatencyFidelity float64 `json:"latency_fidelity"`
	// Completeness is the geometric mean of RequestFeatures,
	// TimeDependencies and LatencyFidelity.
	Completeness float64 `json:"completeness"`
	// TwinDeviation is the relative gap between the analytical twin's
	// closed-form mean response and the discrete-event mean latency of the
	// same synthetic workload: |analytical - simulated| / simulated
	// (lower = the twin tracks the simulator more closely). -1 when the
	// approach carries no twin or its operating point is saturated.
	TwinDeviation float64 `json:"twin_deviation"`
}

// Evaluate scores every approach against the original trace. n synthetic
// requests are generated per approach; non-self-timed approaches are
// replayed on the platform for latency measurement.
//
// Each approach's full setup→synth→replay→score chain runs as one task of
// a bounded worker pool (opts.Workers goroutines; 1 = serial fallback)
// with its own SplitMix64-derived rand stream, and results are merged in
// approach order — so every Scores field except the wall-clock Scalability
// measurement is independent of the worker count (set opts.SkipThroughput
// for fully bit-identical scorecards). The original trace's reference is
// the pool's first task, and a chain waits for it only once it has
// synthesized and read its own features.
func Evaluate(orig *trace.Trace, approaches []Approach, n int, platform replay.Platform, opts Options) ([]Scores, error) {
	if orig == nil || orig.Len() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if n < 1 {
		return nil, fmt.Errorf("crossexam: n must be positive, got %d", n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = len(approaches) + 1
	}
	// Task 0 is claimed before any chain, so a chain waiting on refDone
	// never holds the only worker the reference could run on.
	var ref *reference
	refDone := make(chan struct{})
	out := make([]Scores, len(approaches))
	err := par.Do(len(approaches)+1, workers, func(task int) error {
		if task == 0 {
			ref = newReference(orig)
			close(refDone)
			return nil
		}
		i := task - 1
		a := approaches[i]
		if a.Setup != nil {
			if err := a.Setup(&a); err != nil {
				return fmt.Errorf("crossexam: %s setup: %w", a.Name, err)
			}
		}
		if a.Synthesize == nil {
			return fmt.Errorf("crossexam: approach %q has no synthesizer", a.Name)
		}
		r := prand.New(opts.Seed, uint64(i))
		start := time.Now()
		synth, err := a.Synthesize(n, r)
		if err != nil {
			return fmt.Errorf("crossexam: %s synthesize: %w", a.Name, err)
		}
		elapsed := time.Since(start).Seconds()
		s := Scores{
			Name:            a.Name,
			Configurability: a.Knobs,
			EaseOfUse:       a.NumParams,
		}
		if elapsed > 0 && !opts.SkipThroughput {
			s.Scalability = float64(n) / elapsed
		}
		feat := extractFeatures(synth)
		<-refDone
		s.RequestFeatures = featureScore(ref.features, feat)
		s.TimeDependencies = timeDepScore(synth, ref.modal)
		s.FineGranularity = granularityScore(ref, feat)
		timed := synth
		if !a.SelfTimed {
			timed, err = replay.Run(synth, platform)
			if err != nil {
				return fmt.Errorf("crossexam: %s replay: %w", a.Name, err)
			}
		}
		latency := meanLatencies(timed)
		s.LatencyFidelity = latencyScore(ref, latency)
		s.Completeness = geoMean3(s.RequestFeatures, s.TimeDependencies, s.LatencyFidelity)
		s.TwinDeviation = twinDeviation(a.Twin, latency.all)
		out[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reference is the original trace's side of every score. It is a pure
// function of the trace, so Evaluate computes it once and the approach
// workers share it read-only.
type reference struct {
	// modal is each class's most common phase sequence.
	modal map[string][]trace.Subsystem
	// classes lists the classes in first-seen order.
	classes  []string
	features features
	latency  latencies
}

func newReference(orig *trace.Trace) *reference {
	return &reference{
		modal:    modalPhasesByClass(orig),
		classes:  orig.Classes(),
		features: extractFeatures(orig),
		latency:  meanLatencies(orig),
	}
}

// The pooled subsystem features featureScore compares.
const (
	storageBytes = iota
	storageLBN
	memoryBytes
	cpuUtil
	networkBytes
	numFeatures
)

// features holds the feature samples of one trace, each in ascending
// order, ready for the two-sample KS test.
type features struct {
	pooled [numFeatures][]float64
	// classStorage holds the storage I/O sizes per class, with an entry
	// (possibly empty) for every class that has requests.
	classStorage map[string][]float64
}

// extractFeatures reads every feature sample out of tr in one pass over
// its spans.
func extractFeatures(tr *trace.Trace) features {
	var perSub [4]int
	for i := range tr.Requests {
		for _, s := range tr.Requests[i].Spans {
			if s.Subsystem >= 0 && int(s.Subsystem) < len(perSub) {
				perSub[s.Subsystem]++
			}
		}
	}
	f := features{classStorage: make(map[string][]float64)}
	f.pooled[storageBytes] = make([]float64, 0, perSub[trace.Storage])
	f.pooled[storageLBN] = make([]float64, 0, perSub[trace.Storage])
	f.pooled[memoryBytes] = make([]float64, 0, perSub[trace.Memory])
	f.pooled[cpuUtil] = make([]float64, 0, perSub[trace.CPU])
	f.pooled[networkBytes] = make([]float64, 0, perSub[trace.Network])
	for i := range tr.Requests {
		r := &tr.Requests[i]
		sizes := f.classStorage[r.Class]
		for j := range r.Spans {
			s := &r.Spans[j]
			switch s.Subsystem {
			case trace.Storage:
				f.pooled[storageBytes] = append(f.pooled[storageBytes], float64(s.Bytes))
				f.pooled[storageLBN] = append(f.pooled[storageLBN], float64(s.LBN))
				sizes = append(sizes, float64(s.Bytes))
			case trace.Memory:
				f.pooled[memoryBytes] = append(f.pooled[memoryBytes], float64(s.Bytes))
			case trace.CPU:
				f.pooled[cpuUtil] = append(f.pooled[cpuUtil], s.Util)
			case trace.Network:
				f.pooled[networkBytes] = append(f.pooled[networkBytes], float64(s.Bytes))
			}
		}
		f.classStorage[r.Class] = sizes
	}
	for _, xs := range f.pooled {
		stats.SortFloats(xs)
	}
	for _, xs := range f.classStorage {
		stats.SortFloats(xs)
	}
	return f
}

// latencies holds the mean end-to-end latency of one trace, overall and
// per class.
type latencies struct {
	all     float64
	byClass map[string]float64
}

func meanLatencies(tr *trace.Trace) latencies {
	type acc struct {
		sum float64
		n   int
	}
	var all acc
	byClass := make(map[string]*acc)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		a := byClass[r.Class]
		if a == nil {
			a = new(acc)
			byClass[r.Class] = a
		}
		l := r.Latency()
		a.sum += l
		a.n++
		all.sum += l
		all.n++
	}
	out := latencies{byClass: make(map[string]float64, len(byClass))}
	if all.n > 0 {
		out.all = all.sum / float64(all.n)
	}
	for class, a := range byClass {
		out.byClass[class] = a.sum / float64(a.n)
	}
	return out
}

// featureScore is 1 - mean KS over the pooled subsystem feature
// distributions.
func featureScore(orig, synth features) float64 {
	var total float64
	for k, o := range orig.pooled {
		sy := synth.pooled[k]
		if len(o) == 0 {
			continue
		}
		if len(sy) == 0 {
			total += 1 // feature entirely missing
			continue
		}
		total += stats.KSTest2Sorted(o, sy).Statistic
	}
	return clamp01(1 - total/float64(numFeatures))
}

// modalPhasesByClass returns each class's most common phase sequence.
func modalPhasesByClass(tr *trace.Trace) map[string][]trace.Subsystem {
	paths := make(map[string]*trace.PhasePaths)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		p := paths[r.Class]
		if p == nil {
			p = new(trace.PhasePaths)
			paths[r.Class] = p
		}
		p.Add(r.Spans)
	}
	out := make(map[string][]trace.Subsystem, len(paths))
	for class, p := range paths {
		out[class] = p.Ranked()[0].Phases
	}
	return out
}

// timeDepScore is the fraction of synthetic requests whose phase order
// matches the original order for their class (class-blind approaches are
// matched against every original class; they must match all to score).
func timeDepScore(synth *trace.Trace, modal map[string][]trace.Subsystem) float64 {
	if synth.Len() == 0 {
		return 0
	}
	var matches float64
	for _, r := range synth.Requests {
		want, ok := modal[r.Class]
		if !ok {
			// Class-blind synthetic stream: require a match against all
			// original class orders (they must agree for credit).
			allMatch := len(modal) > 0
			for _, w := range modal {
				if !trace.PhasesMatch(r.Spans, w) {
					allMatch = false
					break
				}
			}
			if allMatch {
				matches++
			}
			continue
		}
		if trace.PhasesMatch(r.Spans, want) {
			matches++
		}
	}
	return matches / float64(synth.Len())
}

// granularityScore is 1 - mean per-class KS on storage I/O sizes: can the
// model reproduce a *specific* class's subsystem behavior (fine-tuning a
// model to a part of the system)?
func granularityScore(ref *reference, synth features) float64 {
	if len(ref.classes) == 0 {
		return 0
	}
	var total float64
	for _, class := range ref.classes {
		o := ref.features.classStorage[class]
		sy, ok := synth.classStorage[class]
		if !ok {
			// Class-blind model: only its pooled stream is available.
			sy = synth.pooled[storageBytes]
		}
		if len(o) == 0 {
			continue
		}
		if len(sy) == 0 {
			total += 1
			continue
		}
		total += stats.KSTest2Sorted(o, sy).Statistic
	}
	return clamp01(1 - total/float64(len(ref.classes)))
}

// latencyScore is 1 - mean per-class relative error of mean latency.
func latencyScore(ref *reference, timed latencies) float64 {
	var total float64
	var counted int
	for _, class := range ref.classes {
		o := ref.latency.byClass[class]
		s, ok := timed.byClass[class]
		if !ok {
			s = timed.all
		}
		if o == 0 {
			continue
		}
		total += stats.RelError(o, s)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return clamp01(1 - total/float64(counted))
}

// twinDeviation cross-examines the closed-form path against the
// discrete-event one: the twin answers its baseline what-if (trained load,
// trained layout — the zero Query) and the relative gap to des, the mean
// latency the simulator actually produced, is the score. -1 marks "no twin to
// compare" (nil twin, saturated operating point, or a degenerate
// discrete-event result) and renders as n/a.
func twinDeviation(tw *twin.Twin, des float64) float64 {
	if tw == nil {
		return -1
	}
	ans, err := tw.WhatIf(twin.Query{})
	if err != nil || !ans.Stable {
		return -1
	}
	if des <= 0 {
		return -1
	}
	return math.Abs(ans.MeanResponseSeconds-des) / des
}

func geoMean3(a, b, c float64) float64 {
	if a <= 0 || b <= 0 || c <= 0 {
		return 0
	}
	return math.Cbrt(a * b * c)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// QualRow is one row of the paper's qualitative Table 1.
type QualRow struct {
	Name  string
	Marks []string // one per column of Columns()
}

// Columns returns the criteria columns of Table 1.
func Columns() []string {
	return []string{
		"Request Features", "Time Dependencies", "Configurability",
		"Fine Granularity", "Scalability", "Ease-of-Use", "Completeness",
	}
}

// QualitativeTable reproduces the paper's Table 1 check-marks
// (reconstructed from the paper's prose and table).
func QualitativeTable() []QualRow {
	return []QualRow{
		{Name: "In-breadth", Marks: []string{"X", "", "", "X", "", "f(Model Complexity)", ""}},
		{Name: "In-depth", Marks: []string{"", "X", "X", "", "X", "X", ""}},
		{Name: "KOOZA", Marks: []string{"X", "X", "X", "X", "X", "X (four simple models)", "X"}},
	}
}

// DeriveQualitative converts measured scores into Table 1 check-marks:
// a criterion is checked when its proxy clears the threshold that
// separates the approaches empirically. Ease-of-use follows the paper's
// annotation style (checked when the parameter count stays small, or
// reported as a function of model complexity otherwise).
func DeriveQualitative(scores []Scores) []QualRow {
	rows := make([]QualRow, 0, len(scores))
	var minParams int
	for i, s := range scores {
		if i == 0 || s.EaseOfUse < minParams {
			minParams = s.EaseOfUse
		}
	}
	for _, s := range scores {
		mark := func(ok bool) string {
			if ok {
				return "X"
			}
			return ""
		}
		ease := "f(Model Complexity)"
		if s.EaseOfUse <= 10*minParams {
			ease = "X"
		}
		rows = append(rows, QualRow{
			Name: s.Name,
			Marks: []string{
				mark(s.RequestFeatures >= 0.8),
				mark(s.TimeDependencies >= 0.8),
				mark(s.Configurability >= 2),
				mark(s.FineGranularity >= 0.8),
				mark(s.Scalability >= 1e4),
				ease,
				mark(s.Completeness >= 0.8),
			},
		})
	}
	return rows
}

// fmtDeviation formats a twin deviation for the scorecard tables: the -1
// "no twin" sentinel renders as n/a rather than a misleading number.
func fmtDeviation(d float64) string {
	if d < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", d)
}

// Render formats the quantitative scorecard plus the qualitative matrix as
// the Table 1 regeneration.
func Render(scores []Scores) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Qualitative comparison (paper):\n")
	fmt.Fprintf(&b, "%-12s", "Model")
	for _, c := range Columns() {
		fmt.Fprintf(&b, " | %-18s", c)
	}
	b.WriteByte('\n')
	for _, row := range QualitativeTable() {
		fmt.Fprintf(&b, "%-12s", row.Name)
		for _, m := range row.Marks {
			fmt.Fprintf(&b, " | %-18s", m)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nQuantitative cross-examination (measured proxies):\n")
	fmt.Fprintf(&b, "%-12s | %-8s | %-8s | %-5s | %-8s | %-12s | %-8s | %-8s | %-8s | %-8s\n",
		"Model", "Features", "TimeDeps", "Knobs", "FineGran", "Synth req/s", "Params", "LatFid", "Complete", "TwinDev")
	for _, s := range scores {
		fmt.Fprintf(&b, "%-12s | %8.3f | %8.3f | %5d | %8.3f | %12.0f | %8d | %8.3f | %8.3f | %8s\n",
			s.Name, s.RequestFeatures, s.TimeDependencies, s.Configurability,
			s.FineGranularity, s.Scalability, s.EaseOfUse, s.LatencyFidelity, s.Completeness,
			fmtDeviation(s.TwinDeviation))
	}
	fmt.Fprintf(&b, "\nCheck-marks derived from the measured proxies:\n")
	fmt.Fprintf(&b, "%-12s", "Model")
	for _, c := range Columns() {
		fmt.Fprintf(&b, " | %-18s", c)
	}
	b.WriteByte('\n')
	for _, row := range DeriveQualitative(scores) {
		fmt.Fprintf(&b, "%-12s", row.Name)
		for _, m := range row.Marks {
			fmt.Fprintf(&b, " | %-18s", m)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
