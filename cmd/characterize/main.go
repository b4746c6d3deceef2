// Command characterize performs Feitelson-style workload characterization
// on a trace: distribution fitting of interarrival times (KS-selected),
// burstiness (index of dispersion, peak-to-mean), self-similarity (Hurst
// estimators), request-size summaries, and per-class breakdowns.
//
// Usage:
//
//	gfstrace -requests 8000 | characterize
//	characterize -in trace.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"

	"dcmodel"
	"dcmodel/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	var (
		in     = flag.String("in", "-", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin)")
		window = flag.Float64("window", 0.5, "counting window for burstiness analysis (seconds)")
	)
	flag.Parse()
	cliflag.Check(cliflag.PositiveFloat("window", *window))

	tr, err := cliflag.ReadTrace(*in)
	if err != nil {
		log.Fatal(err)
	}
	if tr.Len() < 3 {
		log.Fatalf("need at least 3 requests, got %d", tr.Len())
	}
	tr.SortByArrival()
	sum := tr.Summarize()
	fmt.Printf("trace: %d requests, %d classes, %.2fs, mean latency %.3f ms, p99 %.3f ms\n\n",
		sum.Requests, len(sum.Classes), sum.Duration, 1000*sum.MeanLatency, 1000*sum.P99Latency)

	// Arrival-process characterization.
	gaps := tr.Interarrivals()
	fmt.Println("arrival process:")
	fmt.Printf("  rate: %.2f req/s, interarrival SCV %.2f\n", 1/stats.Mean(gaps), stats.SquaredCoefVar(gaps))
	results := stats.FitAll(gaps)
	fmt.Println("  distribution fits (KS-ranked):")
	for i, res := range results {
		if res.Err != nil || i >= 3 {
			break
		}
		fmt.Printf("    %-14s KS=%.4f p=%.3g\n", res.Dist.Name(), res.KS, res.P)
	}
	arr := tr.Arrivals()
	fmt.Printf("  burstiness: IDC@%.2gs %.2f, IDC@%.2gs %.2f, peak-to-mean %.2f\n",
		*window, stats.IndexOfDispersion(arr, *window),
		*window*16, stats.IndexOfDispersion(arr, *window*16),
		stats.PeakToMean(arr, *window))
	if ss, err := stats.AnalyzeSelfSimilarity(arr, *window); err == nil {
		fmt.Printf("  self-similarity: Hurst(R/S) %.2f, Hurst(aggvar) %.2f\n", ss.HurstRS, ss.HurstAggVar)
	}

	// Per-class breakdowns.
	fmt.Println("\nclasses:")
	fmt.Printf("  %-12s | %-8s | %-12s | %-12s | %-10s | %-8s\n",
		"class", "share", "mean I/O B", "latency ms", "cpu util", "read%")
	for _, class := range tr.Classes() {
		sub := tr.ByClass(class)
		ioBytes := sub.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.Bytes) })
		utils := sub.SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util })
		reads := sub.SpanFeature(trace.Storage, func(s trace.Span) float64 {
			if s.Op == trace.OpRead {
				return 1
			}
			return 0
		})
		fmt.Printf("  %-12s | %7.1f%% | %12.0f | %12.3f | %9.2f%% | %7.1f%%\n",
			class, 100*float64(sub.Len())/float64(tr.Len()),
			stats.Mean(ioBytes), 1000*stats.Mean(sub.Latencies()),
			100*stats.Mean(utils), 100*stats.Mean(reads))
	}

	// Storage locality.
	fmt.Println("\nstorage locality:")
	lbns := tr.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.LBN) })
	if len(lbns) > 1 {
		var seq int
		ios := storageStream(tr)
		var prevEnd int64 = -1
		for _, io := range ios {
			if prevEnd >= 0 && io.lbn == prevEnd {
				seq++
			}
			prevEnd = io.lbn + (io.bytes+4095)/4096
		}
		fmt.Printf("  sequential fraction: %.1f%%\n", 100*float64(seq)/float64(len(ios)-1))
		fmt.Printf("  LBN span: %.0f .. %.0f\n", stats.Min(lbns), stats.Max(lbns))
	}
}

type ioRec struct {
	start float64
	lbn   int64
	bytes int64
}

func storageStream(tr *dcmodel.Trace) []ioRec {
	var out []ioRec
	for _, r := range tr.Requests {
		for _, s := range r.SpansIn(trace.Storage) {
			out = append(out, ioRec{start: s.Start, lbn: s.LBN, bytes: s.Bytes})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}
