// Command crossexam runs the paper's Table 1 cross-examination: train the
// in-breadth, in-depth and KOOZA models on the same trace, synthesize from
// each, and print the qualitative matrix plus the measured scorecard.
//
// Usage:
//
//	crossexam -requests 3000 -rate 20
//	crossexam -in trace.csv
//	crossexam -spec presets/incast.json   # cross-examine a declarative scenario
//	crossexam -requests 3000 -workers 4   # parallel approach chains
//	crossexam -requests 3000 -json        # machine-readable scorecard
//	crossexam -requests 3000 -faults '{"mtbf":2,"mttr":0.5}'
//
// With -faults, a second cross-examination runs in the degraded regime:
// the workload is re-simulated with the scenario armed (or, with -in, the
// loaded trace is kept) and every approach's synthetic workload is
// replayed on the degraded platform. The healthy Table 1 output is
// unchanged; the regime comparison is appended after it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"dcmodel"
	"dcmodel/internal/cliflag"
	"dcmodel/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crossexam: ")
	var (
		in       = flag.String("in", "", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin; empty = simulate)")
		specRef  = flag.String("spec", "", "cross-examine a workload spec (preset name or JSON/YAML file) instead of the default simulation")
		requests = flag.Int("requests", 3000, "requests to simulate when -in is empty")
		rate     = flag.Float64("rate", 20, "arrival rate for simulation")
		n        = flag.Int("n", 0, "synthetic requests per approach (0 = trace size)")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "goroutines for the approach chains and the reference (0 = one each, 1 = serial)")
		asJSON   = flag.Bool("json", false, "emit the scorecard as JSON instead of the rendered table")
		faults   = flag.String("faults", "", "fault scenario JSON (e.g. '{\"mtbf\":2,\"mttr\":0.5}'); adds a degraded-regime cross-examination")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Workers(*workers),
		cliflag.Seed(*seed),
		cliflag.Min("requests", *requests, 1),
		cliflag.Min("n", *n, 0),
		cliflag.PositiveFloat("rate", *rate),
	)

	if *in != "" && *specRef != "" {
		cliflag.Check("-in and -spec are mutually exclusive")
	}

	// -spec: resolve once; explicit -requests/-seed override the spec.
	var scenario *spec.Spec
	var specOpts spec.Options
	if *specRef != "" {
		var err error
		scenario, err = spec.Resolve(*specRef)
		if err != nil {
			cliflag.Fatal(err)
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "requests":
				specOpts.Requests = *requests
			case "seed":
				specOpts.Seed = *seed
			}
		})
	}

	var (
		tr  *dcmodel.Trace
		err error
	)
	switch {
	case scenario != nil:
		var c *spec.Compiled
		c, err = scenario.Compile(specOpts)
		if err == nil {
			tr, err = c.Generate(*workers)
		}
	case *in == "":
		tr, err = dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
			RunConfig: dcmodel.RunConfig{
				Mix:      dcmodel.Table2Mix(),
				Requests: *requests,
				Seed:     *seed,
			},
			Rate: *rate,
		})
	default:
		tr, err = cliflag.ReadTrace(*in)
	}
	if err != nil {
		log.Fatal(err)
	}
	count := *n
	if count == 0 {
		count = tr.Len()
	}
	opts := dcmodel.CrossExamOptions{
		Requests: count,
		Seed:     *seed + 1,
		Workers:  *workers,
	}
	scores, err := dcmodel.CrossExamine(tr, dcmodel.DefaultPlatform(), opts)
	if err != nil {
		log.Fatal(err)
	}

	// Optional degraded regime: re-simulate the workload with the scenario
	// armed (a loaded trace is kept as-is) and replay on a degraded platform.
	var degraded []dcmodel.Scores
	if *faults != "" {
		var fc dcmodel.FaultConfig
		if err := json.Unmarshal([]byte(*faults), &fc); err != nil {
			cliflag.Fatal(fmt.Errorf("crossexam: -faults: %w", err))
		}
		faultyTr := tr
		switch {
		case scenario != nil:
			// Regenerate the scenario with the fault engine armed.
			faultyOpts := specOpts
			faultyOpts.Faults = &fc
			var c *spec.Compiled
			c, err = scenario.Compile(faultyOpts)
			if err == nil {
				faultyTr, err = c.Generate(*workers)
			}
			if err != nil {
				cliflag.Fatal(err)
			}
		case *in == "":
			faultyTr, err = dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
				RunConfig: dcmodel.RunConfig{
					Mix:      dcmodel.Table2Mix(),
					Requests: *requests,
					Seed:     *seed,
					Faults:   &fc,
				},
				Rate: *rate,
			})
			if err != nil {
				cliflag.Fatal(err)
			}
		}
		p := dcmodel.DefaultPlatform()
		p.Faults = &fc
		degraded, err = dcmodel.CrossExamine(faultyTr, p, opts)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var v any = scores
		if degraded != nil {
			v = map[string][]dcmodel.Scores{"healthy": scores, "degraded": degraded}
		}
		if err := enc.Encode(v); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(dcmodel.RenderScores(scores))
	if degraded != nil {
		fmt.Println()
		fmt.Print(dcmodel.RenderScoresComparison(scores, degraded))
	}
}
