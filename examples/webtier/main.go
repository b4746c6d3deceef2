// Webtier: the in-depth modeling tradition on a 3-tier web application
// (Liu et al.), plus Joo et al.'s lesson that user-behavior modeling
// matters.
//
// Part 1 builds the web -> app -> db queueing model both analytically
// (open Jackson network) and by discrete-event simulation, and shows they
// agree — the in-depth strength: accurate latency/throughput prediction.
//
// Part 2 drives the same tiers with two request streams of identical mean
// rate: an infinite-source constant stream and the "webtier" scenario
// preset's browsers client — phased self-similar traffic over a diurnal
// cycle with a flash crowd. The tail latencies differ sharply — Joo et
// al.'s conclusion that "the accuracy of the model in capturing user
// behavior ... [is] instrumental for the fidelity of the observed
// results".
//
// Part 3 closes the loop with a Yaksha-style PI admission controller
// keeping the db tier's response time at a target under overload.
//
// Run with: go run ./examples/webtier
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dcmodel/internal/prand"
	"dcmodel/internal/queueing"
	"dcmodel/internal/spec"
	"dcmodel/internal/stats"
)

func main() {
	log.SetFlags(0)
	r := rand.New(rand.NewSource(1))

	// ---- Part 1: analytic vs simulated 3-tier model ----
	const lambda = 40.0
	mus := []float64{200, 90, 60}
	names := []string{"web", "app", "db"}
	net, err := queueing.TandemNetwork(names, mus, []int{1, 1, 1}, lambda)
	if err != nil {
		log.Fatal(err)
	}
	sol, err := net.Solve()
	if err != nil {
		log.Fatal(err)
	}
	cfg := queueing.Config{
		Stations: []queueing.Station{
			{Name: "web", Servers: 1, Service: stats.Exponential{Rate: mus[0]}},
			{Name: "app", Servers: 1, Service: stats.Exponential{Rate: mus[1]}},
			{Name: "db", Servers: 1, Service: stats.Exponential{Rate: mus[2]}},
		},
		Classes:      []queueing.Class{{Name: "req", Weight: 1, Path: []int{0, 1, 2}}},
		Interarrival: stats.Exponential{Rate: lambda},
		NumJobs:      60000,
		Warmup:       6000,
	}
	sim, err := queueing.Simulate(cfg, r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Part 1 — 3-tier model: analytic (Jackson) vs discrete-event simulation")
	fmt.Printf("%-6s | %-12s | %-12s\n", "tier", "rho analytic", "rho simulated")
	for i := range names {
		fmt.Printf("%-6s | %12.3f | %12.3f\n", names[i], sol.Nodes[i].Utilization, sim.Stations[i].Utilization)
	}
	fmt.Printf("mean response: analytic %.2f ms, simulated %.2f ms\n\n",
		1000*sol.MeanResponse, 1000*stats.Mean(sim.Responses()))

	// ---- Part 2: infinite source vs the webtier preset's browsers ----
	// The preset's browsers client is self-similar traffic modulated by a
	// diurnal phase schedule (night/morning/peak/flash-crowd/evening).
	preset, err := spec.Preset("webtier")
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := preset.Compile(spec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var browsers *spec.CompiledClient
	for i := range compiled.Clients {
		if compiled.Clients[i].Name == "browsers" {
			browsers = &compiled.Clients[i]
		}
	}
	if browsers == nil {
		log.Fatal("webtier preset lost its browsers client")
	}
	browserTimes := browsers.Arrivals.Times(4000, prand.New(compiled.Seed, 0))
	meanRate := float64(len(browserTimes)) / browserTimes[len(browserTimes)-1]
	runWith := func(arrivalTimes []float64) []float64 {
		c := cfg
		c.Interarrival = nil
		c.NumJobs = len(arrivalTimes)
		if c.NumJobs > 40000 {
			c.NumJobs = 40000
		}
		c.Warmup = c.NumJobs / 10
		c.Interarrival = newGapDist(arrivalTimes)
		res, err := queueing.Simulate(c, rand.New(rand.NewSource(2)))
		if err != nil {
			log.Fatal(err)
		}
		return res.Responses()
	}
	steady, err := spec.BuildArrivals(spec.ArrivalSpec{Process: "deterministic", Rate: meanRate})
	if err != nil {
		log.Fatal(err)
	}
	infTimes := steady.Times(len(browserTimes), r)
	infResp := runWith(infTimes)
	browserResp := runWith(browserTimes)
	fmt.Println("Part 2 — identical mean load, different user models (Joo et al.)")
	fmt.Printf("%-18s | %-10s | %-10s | %-10s\n", "workload", "mean ms", "p95 ms", "p99 ms")
	for _, row := range []struct {
		name string
		resp []float64
	}{
		{"infinite-source", infResp},
		{"diurnal browsers", browserResp},
	} {
		fmt.Printf("%-18s | %10.2f | %10.2f | %10.2f\n", row.name,
			1000*stats.Mean(row.resp),
			1000*stats.Quantile(row.resp, 0.95),
			1000*stats.Quantile(row.resp, 0.99))
	}
	idcInf := stats.IndexOfDispersion(infTimes, 1)
	idcBrowsers := stats.IndexOfDispersion(browserTimes, 1)
	fmt.Printf("burstiness (IDC@1s): infinite-source %.2f vs diurnal browsers %.2f\n\n", idcInf, idcBrowsers)

	// ---- Part 3: PI admission control under overload ----
	ctl, err := queueing.NewPIController(0.05, 0.02, 0.05) // 50 ms target
	if err != nil {
		log.Fatal(err)
	}
	offered := 80.0 // above the db tier's 60/s capacity
	fmt.Println("Part 3 — Yaksha-style PI admission control (db capacity 60/s, offered 80/s)")
	var admitted, resp float64
	for i := 0; i < 300; i++ {
		admitted = offered * ctl.Admission()
		if admitted >= 60 {
			resp = 1 // saturated
		} else {
			q, err := queueing.NewMM1(admitted, 60)
			if err != nil {
				log.Fatal(err)
			}
			resp = q.MeanResponse()
		}
		ctl.Observe(resp)
	}
	fmt.Printf("steady state: admission %.2f, admitted %.1f req/s, db response %.1f ms (target 50 ms)\n",
		ctl.Admission(), admitted, 1000*resp)
}

// gapDist replays a fixed arrival-time list as an interarrival
// "distribution": Rand returns the successive recorded gaps (cycling if
// exhausted), so the simulator sees exactly the traced arrival process.
type gapDist struct {
	gaps []float64
	i    int
}

func newGapDist(times []float64) *gapDist {
	gaps := make([]float64, 0, len(times))
	prev := 0.0
	for _, t := range times {
		gaps = append(gaps, t-prev)
		prev = t
	}
	return &gapDist{gaps: gaps}
}

func (g *gapDist) Name() string      { return "trace" }
func (g *gapDist) Params() []float64 { return []float64{float64(len(g.gaps))} }
func (g *gapDist) Mean() float64     { return stats.Mean(g.gaps) }
func (g *gapDist) Var() float64      { return stats.Variance(g.gaps) }
func (g *gapDist) CDF(x float64) float64 {
	var n float64
	for _, v := range g.gaps {
		if v <= x {
			n++
		}
	}
	return n / float64(len(g.gaps))
}
func (g *gapDist) Rand(*rand.Rand) float64 {
	v := g.gaps[g.i%len(g.gaps)]
	g.i++
	return v
}
