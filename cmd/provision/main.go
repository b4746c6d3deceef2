// Command provision sizes a server farm for a latency target with the
// closed-loop provisioning optimizer: it trains a workload model on the
// trace, compiles the model's queueing twin on every candidate platform,
// searches the configuration space — farm size, platform, DVFS operating
// point, replication — twin-first (microseconds per candidate, no
// sampling), and then validates the Pareto frontier against discrete-event
// simulations of the SQS farm: a handful of simulations total, instead of
// one per candidate.
//
// Usage:
//
//	gfstrace -requests 8000 -rate 200 | provision -target 0.05
//	provision -spec webtier -target 0.1 -max 64
//	provision -spec mapreduce -target 0.02 -max 32 -json
//	provision -in trace.csv -model in-breadth -target 0.1 -platforms big-core,small-core -dvfs P0,P1,P2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"dcmodel"
	"dcmodel/internal/cliflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("provision: ")
	var (
		in        = flag.String("in", "-", "input trace (CSV, or binary trace-v2 for .dct paths; '-' for stdin)")
		specRef   = flag.String("spec", "", "generate the workload from a spec (preset name or JSON/YAML file) instead of reading -in")
		modelName = flag.String("model", "kooza", "model behind the twin: kooza, in-breadth or in-depth")
		target    = flag.Float64("target", 0.05, "response-time target at -quantile (seconds)")
		quantile  = flag.Float64("quantile", 0.95, "SLO latency quantile: 0.5, 0.95 or 0.99")
		minSrv    = flag.Int("min", 1, "smallest farm size to consider")
		maxSrv    = flag.Int("max", 64, "largest farm size to consider")
		platforms = flag.String("platforms", "", "comma-separated candidate platforms (default big-core; catalog: big-core,small-core)")
		dvfs      = flag.String("dvfs", "", "comma-separated candidate DVFS states (default P0; catalog: P0,P1,P2)")
		maxRepl   = flag.Int("max-replicas", 1, "largest replication factor to consider")
		srvCost   = flag.Float64("server-cost", 1, "fixed per-server hourly cost")
		wattCost  = flag.Float64("watt-cost", 0.01, "hourly cost of one predicted watt")
		tasks     = flag.Int("tasks", 20000, "tasks simulated per DES validation run")
		samples   = flag.Int("samples", 10000, "characterization sample budget of the validation runs")
		valMax    = flag.Int("validate-max", 3, "most frontier configurations to DES-validate, cheapest first")
		seed      = flag.Int64("seed", 1, "random seed (validation runs and -spec generation)")
		workers   = flag.Int("workers", 0, "evaluation and -spec generation concurrency (0 = GOMAXPROCS); never changes the plan")
		jsonOut   = flag.Bool("json", false, "emit the plan as JSON (the same bytes POST /v1/provision serves)")
	)
	flag.Parse()
	cliflag.Check(
		cliflag.Seed(*seed),
		cliflag.Workers(*workers),
		cliflag.Min("min", *minSrv, 1),
		cliflag.Min("max", *maxSrv, 1),
		cliflag.Min("max-replicas", *maxRepl, 1),
		cliflag.Min("tasks", *tasks, 1),
		cliflag.Min("samples", *samples, 1),
		cliflag.Min("validate-max", *valMax, 1),
		cliflag.PositiveFloat("target", *target),
	)

	req := dcmodel.ProvisionRequest{
		Spec:  *specRef,
		Model: *modelName,
		Objective: dcmodel.ProvisionObjective{
			Quantile:      *quantile,
			TargetSeconds: *target,
			ServerCost:    *srvCost,
			WattCost:      *wattCost,
		},
		Space: dcmodel.ProvisionSpace{
			MinServers:  *minSrv,
			MaxServers:  *maxSrv,
			MaxReplicas: *maxRepl,
		},
		Workers:         *workers,
		ValidateTasks:   *tasks,
		ValidateSamples: *samples,
		MaxValidate:     *valMax,
	}
	if *platforms != "" {
		req.Space.Platforms = strings.Split(*platforms, ",")
	}
	if *dvfs != "" {
		req.Space.DVFSStates = strings.Split(*dvfs, ",")
	}
	// An explicitly-set -seed overrides a spec's own seed; the default does
	// not (Provision applies the same explicit-seed semantics).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			req.Seed = *seed
		}
	})
	if *specRef == "" {
		tr, err := cliflag.ReadTrace(*in)
		if err != nil {
			cliflag.Fatal(err)
		}
		req.Trace = tr
	}

	plan, err := dcmodel.Provision(context.Background(), req)
	infeasible := errors.Is(err, dcmodel.ErrNoFeasibleConfig)
	if err != nil && !infeasible {
		cliflag.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(plan); err != nil {
			log.Fatal(err)
		}
		if infeasible {
			os.Exit(1)
		}
		return
	}
	report(plan)
	if infeasible {
		log.Fatalf("no feasible configuration: %v", err)
	}
}

// report prints the human-readable plan: the twin sweep table, the chosen
// configuration, and the DES validation verdicts.
func report(plan dcmodel.Plan) {
	qn := quantileName(plan.Objective.Quantile)
	fmt.Printf("provisioning search: %s <= %.0f ms, %d-%d servers, platforms %s, dvfs %s, replicas %d-%d\n",
		qn, 1000*plan.Objective.TargetSeconds,
		plan.Space.MinServers, plan.Space.MaxServers,
		strings.Join(plan.Space.Platforms, ","), strings.Join(plan.Space.DVFSStates, ","),
		plan.Space.MinReplicas, plan.Space.MaxReplicas)
	fmt.Printf("twin evaluations: %d configurations in closed form, %d DES validation runs\n",
		plan.TwinEvals, plan.DESRuns)

	chosen := plan.Chosen
	fmt.Printf("\nclosed-form twin sweep at %s @ %s, replicas %d:\n", chosen.Platform, chosen.DVFS, chosen.Replicas)
	fmt.Printf("%-8s | %-10s | %-10s | %-10s | %-10s\n", "servers", "util", "mean ms", qn+" ms", "cost/h")
	for _, e := range plan.Sweep {
		if !e.Stable {
			fmt.Printf("%-8d | %9.1f%% | %10s | %10s | %10.2f\n",
				e.Config.Servers, 100*e.BottleneckUtilization, "saturated", "-", e.CostPerHour)
			continue
		}
		fmt.Printf("%-8d | %9.1f%% | %10.2f | %10.2f | %10.2f\n",
			e.Config.Servers, 100*e.BottleneckUtilization,
			1000*e.MeanSeconds, 1000*e.QuantileSeconds, e.CostPerHour)
	}

	if !plan.Feasible {
		fmt.Printf("\nclosest miss: %d x %s @ %s, replicas %d (%s %.2f ms, bottleneck %s)\n",
			chosen.Servers, chosen.Platform, chosen.DVFS, chosen.Replicas,
			qn, 1000*plan.Predicted.QuantileSeconds, plan.Predicted.Bottleneck)
		return
	}
	fmt.Printf("\ntwin decision: %d x %s @ %s, replicas %d (%s %.2f ms <= %.0f ms, bottleneck %s, %.2f cost/h)\n",
		chosen.Servers, chosen.Platform, chosen.DVFS, chosen.Replicas,
		qn, 1000*plan.Predicted.QuantileSeconds, 1000*plan.Objective.TargetSeconds,
		plan.Predicted.Bottleneck, plan.Predicted.CostPerHour)
	if len(plan.Frontier) > 1 {
		fmt.Printf("pareto frontier: %d configurations (cheapest first)\n", len(plan.Frontier))
	}

	for _, v := range plan.Validations {
		if v.Error != "" {
			fmt.Printf("\nvalidation: DES run of %d servers failed: %s\n", v.Servers, v.Error)
			continue
		}
		fmt.Printf("\nvalidation: DES run of %d servers (%d tasks): util %.1f%%, mean %.2f ms, %s %.2f ms\n",
			v.Servers, v.Tasks, 100*v.Utilization, 1000*v.MeanSeconds, qn, 1000*v.QuantileSeconds)
		if v.Servers == chosen.Servers && v.Passed {
			dev := math.Abs(plan.Predicted.QuantileSeconds-v.QuantileSeconds) / v.QuantileSeconds
			fmt.Printf("twin %s %.2f ms vs DES %s %.2f ms (%.1f%% deviation)\n",
				qn, 1000*plan.Predicted.QuantileSeconds, qn, 1000*v.QuantileSeconds, 100*dev)
		}
	}
	if plan.Validated != nil {
		fmt.Printf("provisioning decision validated: %d servers\n", chosen.Servers)
	} else if plan.DESRuns == 0 {
		fmt.Printf("no DES validation performed (twin-only plan)\n")
	}
}

func quantileName(q float64) string {
	switch q {
	case 0.5:
		return "p50"
	case 0.99:
		return "p99"
	default:
		return "p95"
	}
}
