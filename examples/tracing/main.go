// Tracing: the two Google in-depth data-collection infrastructures the
// paper reviews, applied to a simulated GFS workload.
//
// Dapper-style request tracing samples 1 of every N requests and records
// each as a tree of nested spans with annotations; GWP-style continuous
// profiling samples across the whole cluster to surface aggregate trends
// (per-subsystem busy fractions, hottest request classes, arrival rate)
// with adaptive sampling.
//
// Run with: go run ./examples/tracing
package main

import (
	"fmt"
	"log"

	"dcmodel"
	"dcmodel/internal/dapper"
	"dcmodel/internal/gwp"
	"dcmodel/internal/trace"
)

func main() {
	log.SetFlags(0)

	cfg := dcmodel.DefaultGFSConfig()
	cfg.Chunkservers = 4
	tr, err := dcmodel.Simulate(cfg, dcmodel.GFSRun{
		RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: 5000, Seed: 1},
		Rate:      40,
	})
	if err != nil {
		log.Fatal(err)
	}

	// ---- Dapper: sampled request trees ----
	// RecordWorkload drives the Recorder seam: any sink implementing
	// dapper.Recorder works here (a Collector, an obs.TraceRing, a Tee of
	// both); the daemon uses the same seam for its live /v1/traces view.
	var collector dapper.Collector
	started, sampled, err := dapper.RecordWorkload(tr, 1000, &collector) // 1-in-1000, as the paper quotes
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Dapper-style tracing: %d requests seen, %d recorded (1/%d sampling)\n\n",
		started, sampled, 1000)
	if trees := collector.Trees(); len(trees) > 0 {
		fmt.Println("one sampled trace tree:")
		fmt.Print(trees[0].Render())
	}

	// ---- GWP: cluster-wide profiling ----
	profile, err := gwp.Collect(tr, gwp.Options{Period: 0.002, MaxSamples: 50000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGWP-style profile: %.1fs of activity, %d samples (period %.1f ms, adapted=%v)\n",
		profile.Duration, profile.Samples, 1000*profile.EffectivePeriod, profile.Adapted)
	fmt.Printf("arrival rate: %.1f req/s\n\n", profile.ArrivalRate)
	fmt.Printf("%-8s | %-8s | %-8s | %-8s | %-8s\n", "server", "net busy", "cpu busy", "mem busy", "disk busy")
	for _, m := range profile.Machines {
		fmt.Printf("%-8d | %7.2f%% | %7.2f%% | %7.2f%% | %7.2f%%\n", m.Server,
			100*m.Busy[trace.Network], 100*m.Busy[trace.CPU],
			100*m.Busy[trace.Memory], 100*m.Busy[trace.Storage])
	}
	fmt.Println("\nhottest request classes:")
	for _, c := range profile.Classes {
		fmt.Printf("  %-10s %5d requests, mean I/O %8.0f B, mean latency %7.2f ms, cpu %5.2f%%\n",
			c.Class, c.Requests, c.MeanBytes, 1000*c.MeanLatency, 100*c.MeanUtil)
	}
	// ---- Pinpoint-style anomaly detection on densely sampled traces ----
	var dense dapper.Collector
	if _, _, err := dapper.RecordWorkload(tr, 1, &dense); err != nil { // full capture for the study
		log.Fatal(err)
	}
	allTrees := dense.Trees()
	anomalies, err := dapper.Detect(allTrees, dapper.DetectorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPinpoint-style anomaly scan over %d traces: %d flagged\n", len(allTrees), len(anomalies))
	for i, a := range anomalies {
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", len(anomalies)-3)
			break
		}
		fmt.Printf("  [%s] trace %d: %s\n", a.Kind, a.Tree.Root.Span.Trace, a.Detail)
	}

	fmt.Println("\nthe paper's point: these tools capture structure and hotspots, but")
	fmt.Println("only the annotations carry subsystem features — a workload MODEL")
	fmt.Println("(KOOZA) is still needed to regenerate the workload elsewhere.")
}
