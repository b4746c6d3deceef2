// Command dcmodel-cluster runs one node of the distributed modeling
// service: a coordinator that consistent-hash-routes the trace-v2 blocks of
// ingested request streams, whole, across worker shards and assembles the
// exactly-merged global model, or a worker that trains its shard online and
// serves queries from the replicated model.
//
// Usage:
//
//	dcmodel-cluster -mode worker -addr :9071
//	dcmodel-cluster -mode worker -addr :9072
//	dcmodel-cluster -mode coordinator -addr :9070 \
//	    -workers http://localhost:9071,http://localhost:9072
//	curl --data-binary @trace.csv http://localhost:9070/v1/ingest
//	curl -X POST http://localhost:9070/v1/merge
//	curl 'http://localhost:9071/v1/synthesize?n=4000&seed=2' > synth.csv
//
// The merged model is byte-identical regardless of worker count and
// routing interleaving, so any worker (or the coordinator itself, when
// every worker is down) answers queries identically. The coordinator sends
// each query to the ring owner of its key among the live workers that hold
// its own merged generation; -faults arms a kill schedule over the workers
// to rehearse mid-run failures.
//
// SIGTERM or SIGINT shuts the node down gracefully.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcmodel/internal/cliflag"
	"dcmodel/internal/cluster"
	"dcmodel/internal/fault"
	"dcmodel/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcmodel-cluster: ")
	defModel := cluster.DefaultModelConfig()
	var (
		mode       = flag.String("mode", "worker", "node role: coordinator or worker")
		addr       = flag.String("addr", ":9070", "listen address")
		regions    = flag.Int("regions", defModel.StorageRegions, "storage Markov states (must match across every node)")
		diskBlocks = flag.Int64("disk-blocks", defModel.DiskBlocks, "fixed LBN address-space size for region quantization")
		smoothing  = flag.Float64("smoothing", defModel.Smoothing, "Laplace smoothing applied when counts become chains")

		// Coordinator flags.
		workers    = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode, required)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per worker on the hash ring")
		mergeEvery = flag.Int("merge-every", 4096, "routed requests between automatic merge+replicate cycles (<0 disables)")
		cooldown   = flag.Duration("cooldown", time.Second, "how long a dead worker stays excluded before the half-open probe")
		faultsJSON = flag.String("faults", "", "fault schedule to arm over the workers, as JSON (e.g. '{\"mtbf\":30,\"mttr\":5}')")
		traceEvery = flag.Int("trace-every", 0, "sample 1 in N ingest requests into live span trees at /v1/traces (0 = off)")
		traceCap   = flag.Int("trace-cap", 128, "sampled traces kept in the ring buffer")

		// Worker flags.
		maxInflight = flag.Int("max-inflight", 64, "concurrent ingest bodies a worker accepts before replying 429")
		maxSynth    = flag.Int("max-synth", 100000, "largest n one synthesize request may ask for")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Min("regions", *regions, 2),
		cliflag.Min("vnodes", *vnodes, 1),
		cliflag.Min("max-inflight", *maxInflight, 1),
		cliflag.Min("max-synth", *maxSynth, 1),
		cliflag.PositiveFloat("smoothing", *smoothing),
		cliflag.PositiveFloat("cooldown", cooldown.Seconds()),
	)
	if *traceEvery < 0 {
		cliflag.Check("-trace-every must be >= 0")
	}

	model := cluster.ModelConfig{
		StorageRegions: *regions,
		DiskBlocks:     *diskBlocks,
		Smoothing:      *smoothing,
	}

	var handler http.Handler
	switch *mode {
	case "worker":
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Model:       model,
			MaxInflight: *maxInflight,
			MaxSynth:    *maxSynth,
		})
		if err != nil {
			cliflag.Fatal(err)
		}
		handler = w.Handler()
		log.Printf("worker listening on %s (regions %d, max-inflight %d)", *addr, *regions, *maxInflight)
	case "coordinator":
		urls := splitURLs(*workers)
		if len(urls) == 0 {
			cliflag.Check("-workers is required in coordinator mode")
		}
		cfg := cluster.CoordinatorConfig{
			Workers:    urls,
			VNodes:     *vnodes,
			MergeEvery: *mergeEvery,
			Model:      model,
			Cooldown:   cooldown.Seconds(),
			MaxSynth:   *maxSynth,
		}
		if *faultsJSON != "" {
			var fc fault.Config
			if err := json.Unmarshal([]byte(*faultsJSON), &fc); err != nil {
				cliflag.Fatal(fmt.Errorf("dcmodel-cluster: -faults: %w", err))
			}
			cfg.Faults = &fc
		}
		if *traceEvery > 0 {
			cliflag.Check(cliflag.Min("trace-cap", *traceCap, 1))
			cfg.Obs = &obs.Options{SampleEvery: *traceEvery, TraceCapacity: *traceCap}
		}
		c, err := cluster.NewCoordinator(cfg)
		if err != nil {
			cliflag.Fatal(err)
		}
		handler = c.Handler()
		log.Printf("coordinator listening on %s over %d workers (merge-every %d)", *addr, len(urls), *mergeEvery)
	default:
		cliflag.Check(fmt.Sprintf("-mode must be coordinator or worker, got %q", *mode))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}

// splitURLs parses the -workers list, dropping empty entries.
func splitURLs(list string) []string {
	var out []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
