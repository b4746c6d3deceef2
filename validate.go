package dcmodel

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"dcmodel/internal/kooza"
	"dcmodel/internal/replay"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// FeatureRow is one original-vs-synthetic comparison row, matching the
// columns of the paper's Table 2.
type FeatureRow struct {
	Class string
	// Network request size (bytes): the request's payload transfer.
	NetOrig, NetSynth float64
	// CPU utilization (fraction).
	UtilOrig, UtilSynth float64
	// Memory access size (bytes) and dominant type.
	MemOrig, MemSynth     float64
	MemOpOrig, MemOpSynth Op
	// Storage I/O size (bytes) and dominant type.
	StorOrig, StorSynth     float64
	StorOpOrig, StorOpSynth Op
	// Latency (seconds), measured on the same platform.
	LatOrig, LatSynth float64
}

// FeatureDeviation returns the maximum relative deviation across the
// feature columns (the paper reports <= 1%).
func (r FeatureRow) FeatureDeviation() float64 {
	devs := []float64{
		stats.RelError(r.NetOrig, r.NetSynth),
		stats.RelError(r.UtilOrig, r.UtilSynth),
		stats.RelError(r.MemOrig, r.MemSynth),
		stats.RelError(r.StorOrig, r.StorSynth),
	}
	var m float64
	for _, d := range devs {
		if d > m {
			m = d
		}
	}
	return m
}

// LatencyDeviation returns the relative latency deviation (the paper
// reports <= 6.6%).
func (r FeatureRow) LatencyDeviation() float64 {
	return stats.RelError(r.LatOrig, r.LatSynth)
}

// ValidationResult is the outcome of the Table 2 pipeline.
type ValidationResult struct {
	Rows []FeatureRow
	// Model is the trained KOOZA model (for Describe / inspection).
	Model *KoozaModel
}

// Validate runs the Table 2 pipeline: train on tr, synthesize n requests,
// replay on the platform, compare per class. The original side of every
// row is summed on its own goroutine while the model trains and replays.
func Validate(tr *Trace, n int, p Platform, opts KoozaOptions, seed int64) (*ValidationResult, error) {
	var orig map[string]*classSums
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); orig = sumByClass(tr, tr) }()
	model, err := kooza.Train(tr, opts)
	var synth, timed *Trace
	if err == nil {
		synth, err = model.Synthesize(n, rand.New(rand.NewSource(seed)))
	}
	if err == nil {
		timed, err = replay.Run(synth, p)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	syn := sumByClass(synth, timed)
	res := &ValidationResult{Model: model}
	for _, class := range tr.Classes() {
		o, s := orig[class], syn[class]
		if s == nil {
			return nil, fmt.Errorf("dcmodel: class %q missing from synthetic trace", class)
		}
		res.Rows = append(res.Rows, FeatureRow{Class: class,
			NetOrig: o.mean(trace.Network), NetSynth: s.mean(trace.Network),
			UtilOrig: o.mean(trace.CPU), UtilSynth: s.mean(trace.CPU),
			MemOrig: o.mean(trace.Memory), MemSynth: s.mean(trace.Memory),
			MemOpOrig: o.dominant(trace.Memory), MemOpSynth: s.dominant(trace.Memory),
			StorOrig: o.mean(trace.Storage), StorSynth: s.mean(trace.Storage),
			StorOpOrig: o.dominant(trace.Storage), StorOpSynth: s.dominant(trace.Storage),
			LatOrig: o.latency / float64(o.n[trace.Network]), LatSynth: s.latency / float64(s.n[trace.Network]),
		})
	}
	return res, nil
}

// classSums is one class's side of a Table 2 row: per subsystem, the sum of
// span bytes (CPU: util) and the span and op counts; the network slot sums
// each request's payload, its largest transfer. Sums run in request-then-
// span order, as stats.Mean adds, so every mean keeps its bits.
type classSums struct {
	sum     [4]float64
	n       [4]int
	ops     [4][OpWrite + 1]int
	latency float64
}

func (c *classSums) mean(sub Subsystem) float64 { return c.sum[sub] / float64(max(c.n[sub], 1)) }

func (c *classSums) dominant(sub Subsystem) Op {
	if c.ops[sub][OpRead] >= c.ops[sub][OpWrite] {
		return OpRead
	}
	return OpWrite
}

// sumByClass walks feat once, taking latencies from timed's same requests.
func sumByClass(feat, timed *Trace) map[string]*classSums {
	out := make(map[string]*classSums)
	for i := range feat.Requests {
		r := &feat.Requests[i]
		cs := out[r.Class]
		if cs == nil {
			cs = new(classSums)
			out[r.Class] = cs
		}
		var payload int64
		for _, s := range r.Spans {
			sub, v := s.Subsystem, float64(s.Bytes)
			switch {
			case sub == trace.Network:
				payload = max(payload, s.Bytes)
				continue
			case sub == trace.CPU:
				v = s.Util
			case sub != trace.Memory && sub != trace.Storage:
				continue
			}
			cs.sum[sub] += v
			cs.n[sub]++
			if s.Op >= 0 && s.Op <= OpWrite {
				cs.ops[sub][s.Op]++
			}
		}
		cs.sum[trace.Network] += float64(payload)
		cs.n[trace.Network]++
		cs.latency += timed.Requests[i].Latency()
	}
	return out
}

// Render formats the validation result in the layout of the paper's
// Table 2.
func (v *ValidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Validation of request features and latency (KOOZA)\n")
	fmt.Fprintf(&b, "%-10s | %-10s | %-14s | %-10s | %-20s | %-20s | %-12s\n",
		"Class", "Row", "Network B", "CPU util", "Memory (B, type)", "Storage (B, type)", "Latency ms")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-10s | %-10s | %14.0f | %9.2f%% | %12.0f %-7s | %12.0f %-7s | %12.3f\n",
			r.Class, "original", r.NetOrig, 100*r.UtilOrig, r.MemOrig, r.MemOpOrig, r.StorOrig, r.StorOpOrig, 1000*r.LatOrig)
		fmt.Fprintf(&b, "%-10s | %-10s | %14.0f | %9.2f%% | %12.0f %-7s | %12.0f %-7s | %12.3f\n",
			"", "synthetic", r.NetSynth, 100*r.UtilSynth, r.MemSynth, r.MemOpSynth, r.StorSynth, r.StorOpSynth, 1000*r.LatSynth)
		fmt.Fprintf(&b, "%-10s | %-10s | %13.2f%% | %9.2f%% | %12.2f%% %-7s | %12.2f%% %-7s | %11.2f%%\n",
			"", "variation",
			100*stats.RelError(r.NetOrig, r.NetSynth),
			100*stats.RelError(r.UtilOrig, r.UtilSynth),
			100*stats.RelError(r.MemOrig, r.MemSynth), "",
			100*stats.RelError(r.StorOrig, r.StorSynth), "",
			100*r.LatencyDeviation())
	}
	return b.String()
}
