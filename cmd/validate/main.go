// Command validate runs the paper's Table 2 pipeline end-to-end: simulate
// (or load) a GFS workload trace, train KOOZA on it, synthesize an equal
// number of requests, replay them on the same simulated platform, and
// print the original-vs-synthetic comparison of request features and
// latency.
//
// Usage:
//
//	validate -requests 4000 -rate 20          # simulate + validate
//	validate -in trace.csv -n 4000            # validate against a trace
package main

import (
	"flag"
	"fmt"
	"log"

	"dcmodel"
	"dcmodel/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	var (
		in       = flag.String("in", "", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin; empty = simulate)")
		requests = flag.Int("requests", 4000, "requests to simulate when -in is empty")
		rate     = flag.Float64("rate", 20, "arrival rate for simulation")
		n        = flag.Int("n", 0, "synthetic requests (0 = same as training trace)")
		seed     = flag.Int64("seed", 1, "random seed")
		describe = flag.Bool("describe", false, "also print the trained model structure (Figure 2)")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Seed(*seed),
		cliflag.Min("requests", *requests, 1),
		cliflag.Min("n", *n, 0),
		cliflag.PositiveFloat("rate", *rate),
	)

	var (
		tr  *dcmodel.Trace
		err error
	)
	if *in == "" {
		tr, err = dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
			RunConfig: dcmodel.RunConfig{
				Mix:      dcmodel.Table2Mix(),
				Requests: *requests,
				Seed:     *seed,
			},
			Rate: *rate,
		})
	} else {
		tr, err = cliflag.ReadTrace(*in)
	}
	if err != nil {
		log.Fatal(err)
	}
	count := *n
	if count == 0 {
		count = tr.Len()
	}
	res, err := dcmodel.Validate(tr, count, dcmodel.DefaultPlatform(), dcmodel.KoozaOptions{}, *seed+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	if *describe {
		fmt.Println()
		fmt.Print(res.Model.Describe())
	}
}
