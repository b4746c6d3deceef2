// Serverconfig: the paper's headline use case — "evaluating different
// server configurations without access to real DC application
// source-code" (§5), here the small-core-vs-big-core efficiency question
// of Reddi et al. ("Web Search Using Mobile Cores").
//
// A KOOZA model is trained on a trace of the original system; the
// synthetic workload it generates is then replayed on two candidate
// platforms — a big-core server and a mobile-core server with a slower
// CPU — and each is scored on p99 latency (the QoS constraint) and energy
// per request (the efficiency objective). The decision taken from the
// synthetic workload is checked against the decision the original trace
// would give.
//
// Run with: go run ./examples/serverconfig
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dcmodel"
	"dcmodel/internal/hw"
	"dcmodel/internal/power"
	"dcmodel/internal/stats"
)

// smallCoreHW is the mobile-core platform: 1/3 the clock of the default
// chunkserver CPU, everything else equal.
func smallCoreHW() *hw.Server {
	s := dcmodel.DefaultPlatform().NewServer()
	s.CPU.Frequency /= 3
	return s
}

type configCandidate struct {
	name     string
	platform dcmodel.Platform
	pw       power.ServerPower
}

type verdict struct {
	p99   float64
	jReq  float64
	meets bool
}

func evaluate(tr *dcmodel.Trace, c configCandidate, slo float64) (verdict, error) {
	timed, err := dcmodel.Replay(tr, c.platform)
	if err != nil {
		return verdict{}, err
	}
	lat := timed.Latencies()
	b, err := power.Energy(timed, 0, c.pw)
	if err != nil {
		return verdict{}, err
	}
	p99 := stats.Quantile(lat, 0.99)
	return verdict{p99: p99, jReq: b.JoulesPerRequest, meets: p99 <= slo}, nil
}

func pick(results map[string]verdict, order []string) string {
	best := ""
	for _, name := range order {
		v := results[name]
		if !v.meets {
			continue
		}
		if best == "" || v.jReq < results[best].jReq {
			best = name
		}
	}
	return best
}

func main() {
	log.SetFlags(0)
	const sloSeconds = 0.080 // p99 <= 80 ms

	// The original application trace (this is all a model user has).
	orig, err := dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
		RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: 6000, Seed: 1},
		Rate:      20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Model it and generate the synthetic stand-in workload.
	model, err := dcmodel.Train(orig, dcmodel.Kooza)
	if err != nil {
		log.Fatal(err)
	}
	synth, err := model.Synthesize(orig.Len(), rand.New(rand.NewSource(2)))
	if err != nil {
		log.Fatal(err)
	}

	candidates := []configCandidate{
		{
			name:     "big-core",
			platform: dcmodel.DefaultPlatform(),
			pw:       power.BigCoreServer(),
		},
		{
			name:     "small-core",
			platform: dcmodel.Platform{NewServer: smallCoreHW},
			pw:       power.SmallCoreServer(),
		},
	}
	order := []string{"big-core", "small-core"}

	fmt.Printf("Server-configuration study (QoS: p99 <= %.0f ms; objective: min J/request)\n\n", 1000*sloSeconds)
	fmt.Printf("%-12s | %-10s | %-12s | %-12s | %-6s\n", "config", "workload", "p99 ms", "J/request", "QoS")
	synthResults := make(map[string]verdict)
	origResults := make(map[string]verdict)
	for _, c := range candidates {
		for _, w := range []struct {
			name string
			tr   *dcmodel.Trace
			into map[string]verdict
		}{
			{"synthetic", synth, synthResults},
			{"original", orig, origResults},
		} {
			v, err := evaluate(w.tr, c, sloSeconds)
			if err != nil {
				log.Fatal(err)
			}
			w.into[c.name] = v
			qos := "meets"
			if !v.meets {
				qos = "FAILS"
			}
			fmt.Printf("%-12s | %-10s | %12.2f | %12.2f | %-6s\n",
				c.name, w.name, 1000*v.p99, v.jReq, qos)
		}
	}
	synthPick := pick(synthResults, order)
	origPick := pick(origResults, order)
	fmt.Printf("\ndecision from the synthetic (model-generated) workload: %s\n", synthPick)
	fmt.Printf("decision from the original workload:                    %s\n", origPick)
	if synthPick == origPick && synthPick != "" {
		fmt.Println("=> the model-driven configuration study reaches the same decision")
	} else {
		fmt.Println("=> WARNING: decisions diverge")
	}
}
