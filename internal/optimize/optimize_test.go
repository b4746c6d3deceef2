package optimize

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"dcmodel/internal/errs"
	"dcmodel/internal/gfs"
	"dcmodel/internal/sqs"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
	"dcmodel/internal/workload"
)

// testTwins builds a synthetic per-platform twin table: a light four-station
// open network at the given arrival rate, with the small-core platform's CPU
// demand doubled (half the clock).
func testTwins(lambda float64) map[string]*twin.Twin {
	mk := func(cpuDemand float64) *twin.Twin {
		return &twin.Twin{
			Approach:   "test",
			Lambda:     lambda,
			ArrivalSCV: 1,
			Stations: []twin.Station{
				{Subsystem: trace.Network, Name: trace.Network.String(), Demand: 0.004, SCV: 1},
				{Subsystem: trace.CPU, Name: trace.CPU.String(), Demand: cpuDemand, SCV: 1},
				{Subsystem: trace.Memory, Name: trace.Memory.String(), Demand: 0.002, SCV: 1},
				{Subsystem: trace.Storage, Name: trace.Storage.String(), Demand: 0.012, SCV: 1},
			},
			Servers: 1,
			Shares:  []float64{1},
		}
	}
	return map[string]*twin.Twin{
		"big-core":   mk(0.006),
		"small-core": mk(0.012),
	}
}

func wideSpace() Space {
	return Space{
		MinServers: 1, MaxServers: 24,
		Platforms:   []string{"big-core", "small-core"},
		DVFSStates:  []string{"P0", "P1", "P2"},
		MinReplicas: 1, MaxReplicas: 2,
	}
}

func planJSON(t *testing.T, p Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal plan: %v", err)
	}
	return b
}

// TestPlanByteIdenticalAcrossWorkers is the package determinism contract:
// the serialized Plan must not change with the worker count.
func TestPlanByteIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		plan, err := Search(context.Background(), Input{Twins: testTwins(120)}, Request{
			Objective: Objective{TargetSeconds: 0.05},
			Space:     wideSpace(),
			Seed:      42,
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := planJSON(t, plan)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("plan bytes differ at workers=%d", workers)
		}
	}
}

// TestPlanAuditTrail checks the trail carries the search history and the
// twin-evaluation accounting.
func TestPlanAuditTrail(t *testing.T) {
	plan, err := Search(context.Background(), Input{Twins: testTwins(120)}, Request{
		Objective: Objective{TargetSeconds: 0.05},
		Space:     wideSpace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trail) < 2 {
		t.Fatalf("trail has %d steps, want >= 2", len(plan.Trail))
	}
	if last := plan.Trail[len(plan.Trail)-1]; last.Best != plan.Predicted {
		t.Fatalf("last trail step %q ends at %+v, want the chosen %+v", last.Note, last.Best.Config, plan.Chosen)
	}
	if plan.TwinEvals <= 0 {
		t.Fatalf("TwinEvals = %d, want > 0", plan.TwinEvals)
	}
	if plan.DESRuns != 0 {
		t.Fatalf("DESRuns = %d without a DES model, want 0", plan.DESRuns)
	}
	if len(plan.Sweep) == 0 || plan.Sweep[len(plan.Sweep)-1].Config != plan.Chosen {
		t.Fatalf("sweep should end at the chosen config, got %d entries", len(plan.Sweep))
	}
	if len(plan.Frontier) == 0 || plan.Frontier[0].Config != plan.Chosen {
		t.Fatalf("frontier should start at the chosen config")
	}
}

// TestNoFeasibleConfig: an unreachable target returns the sentinel plus a
// populated best-effort plan.
func TestNoFeasibleConfig(t *testing.T) {
	plan, err := Search(context.Background(), Input{Twins: testTwins(120)}, Request{
		Objective: Objective{TargetSeconds: 1e-9},
		Space:     wideSpace(),
	})
	if !errors.Is(err, errs.ErrNoFeasibleConfig) {
		t.Fatalf("err = %v, want ErrNoFeasibleConfig", err)
	}
	if errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("ErrNoFeasibleConfig must not alias ErrBadConfig: %v", err)
	}
	if plan.Feasible {
		t.Fatal("plan.Feasible = true on an infeasible search")
	}
	if len(plan.Trail) == 0 || plan.TwinEvals == 0 {
		t.Fatal("infeasible plan should still carry the audit trail")
	}
	if plan.Chosen.Servers == 0 {
		t.Fatal("infeasible plan should still name the closest miss")
	}
}

// TestSearchValidation: structural problems wrap ErrBadConfig before any
// solver runs.
func TestSearchValidation(t *testing.T) {
	cases := []Request{
		{Objective: Objective{TargetSeconds: -1}},
		{Objective: Objective{TargetSeconds: 0.05, Quantile: 0.9}},
		{Objective: Objective{TargetSeconds: 0.05}, Space: Space{Platforms: []string{"quantum"}}},
		{Objective: Objective{TargetSeconds: 0.05}, Space: Space{DVFSStates: []string{"P9"}}},
		{Objective: Objective{TargetSeconds: 0.05}, Space: Space{MinServers: 10, MaxServers: 5}},
	}
	for i, req := range cases {
		_, err := Search(context.Background(), Input{Twins: testTwins(120)}, req)
		if !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestEvalOutsideSpace: the evaluator rejects out-of-space configurations
// as ErrBadConfig rather than silently pricing them.
func TestEvalOutsideSpace(t *testing.T) {
	ev, err := NewEvaluator(testTwins(120), Objective{TargetSeconds: 0.05}, wideSpace())
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.Eval(Config{Servers: 99, Platform: "big-core", DVFS: "P0", Replicas: 1})
	if !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestEvaluationOrdering pins the search's total order: feasible beats
// stable-infeasible beats unstable, cheapest first among feasible.
func TestEvaluationOrdering(t *testing.T) {
	feasCheap := Evaluation{Config: Config{Servers: 3}, Stable: true, Feasible: true, CostPerHour: 3}
	feasDear := Evaluation{Config: Config{Servers: 5}, Stable: true, Feasible: true, CostPerHour: 5}
	stable := Evaluation{Config: Config{Servers: 2}, Stable: true, QuantileSeconds: 0.2, CostPerHour: 2}
	unstable := Evaluation{Config: Config{Servers: 1}, BottleneckUtilization: 1.4, CostPerHour: 1}
	if !better(feasCheap, feasDear) || !better(feasDear, stable) || !better(stable, unstable) {
		t.Fatal("total order violated: want feasible-cheap > feasible-dear > stable > unstable")
	}
	if better(feasDear, feasCheap) {
		t.Fatal("better is not antisymmetric")
	}
}

// TestParetoFrontier checks dominated configurations are dropped and the
// frontier is sorted cheapest-first.
func TestParetoFrontier(t *testing.T) {
	a := Evaluation{Config: Config{Servers: 3}, Feasible: true, Stable: true, CostPerHour: 3, QuantileSeconds: 0.04}
	b := Evaluation{Config: Config{Servers: 4}, Feasible: true, Stable: true, CostPerHour: 4, QuantileSeconds: 0.03}
	dominated := Evaluation{Config: Config{Servers: 5}, Feasible: true, Stable: true, CostPerHour: 5, QuantileSeconds: 0.04}
	front := pareto([]Evaluation{dominated, b, a})
	if len(front) != 2 {
		t.Fatalf("frontier has %d entries, want 2", len(front))
	}
	if front[0].Config != a.Config || front[1].Config != b.Config {
		t.Fatalf("frontier order wrong: %+v", front)
	}
}

// desModel characterizes a small simulated GFS trace into the empirical
// farm model.
func desModel(t *testing.T) (*sqs.Model, *trace.Trace) {
	t.Helper()
	cluster, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cluster.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 40},
		Requests: 1500,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDESModel(tr, Request{})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestDESValidatedPlan drives the full twin-first-then-DES path and checks
// the validation accounting and its determinism.
func TestDESValidatedPlan(t *testing.T) {
	des, _ := desModel(t)
	req := Request{
		Objective: Objective{TargetSeconds: 0.2},
		Space:     Space{MaxServers: 16},
		Seed:      3,
	}
	run := func() Plan {
		plan, err := Search(context.Background(), Input{Twins: testTwins(40), DES: des}, req)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1, p2 := run(), run()
	if p1.Validated == nil {
		t.Fatal("plan.Validated = nil, want a passing DES run")
	}
	if p1.DESRuns < 1 || p1.DESRuns != len(p1.Validations) {
		t.Fatalf("DESRuns = %d with %d validations", p1.DESRuns, len(p1.Validations))
	}
	if !p1.Validated.Passed || p1.Validated.Servers != p1.Chosen.Servers {
		t.Fatalf("validated run %+v does not match chosen %+v", p1.Validated, p1.Chosen)
	}
	if p1.TwinEvals <= p1.DESRuns {
		t.Fatalf("twin-first contract: TwinEvals %d should dwarf DESRuns %d", p1.TwinEvals, p1.DESRuns)
	}
	if string(planJSON(t, p1)) != string(planJSON(t, p2)) {
		t.Fatal("DES-validated plan not reproducible at fixed seed")
	}
}

// TestSearchCancellation: a cancelled context stops the search between
// batches.
func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Search(ctx, Input{Twins: testTwins(120)}, Request{
		Objective: Objective{TargetSeconds: 0.05},
		Space:     wideSpace(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countingCtx is a context whose Err answers nil limit times, counting
// them, and reports it cancelled after that; a negative limit never does.
type countingCtx struct {
	context.Context
	calls, limit int
}

func (c *countingCtx) Err() error {
	if c.limit >= 0 && c.calls >= c.limit {
		return context.Canceled
	}
	c.calls++
	return nil
}

// TestSearchCancelledBeforeValidation: a context that ends once the descent
// is over stops the search before its first DES run.
func TestSearchCancelledBeforeValidation(t *testing.T) {
	des, _ := desModel(t)
	req := Request{
		Objective: Objective{TargetSeconds: 0.2},
		Space:     Space{MaxServers: 16},
		Seed:      3,
	}
	twins := testTwins(40)
	// How often the descent looks at its context, counted on a twin-only
	// search of the same space.
	descent := &countingCtx{Context: context.Background(), limit: -1}
	if _, err := Search(descent, Input{Twins: twins}, req); err != nil {
		t.Fatal(err)
	}
	ctx := &countingCtx{Context: context.Background(), limit: descent.calls}
	plan, err := Search(ctx, Input{Twins: twins, DES: des}, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if plan.DESRuns != 0 || len(plan.Validations) != 0 {
		t.Fatalf("DESRuns = %d, %d validations after the context ended, want 0", plan.DESRuns, len(plan.Validations))
	}
	if len(plan.Trail) == 0 {
		t.Fatal("the descent should have run before the context ended")
	}
}

// TestPlatformCatalog: the catalog backs the space's platform names, with
// big-core, the default, first.
func TestPlatformCatalog(t *testing.T) {
	cat := Platforms()
	if len(cat) < 2 {
		t.Fatalf("catalog has %d platforms, want >= 2", len(cat))
	}
	if cat[0].Name != "big-core" {
		t.Fatalf("catalog[0] = %q, want big-core", cat[0].Name)
	}
	for _, p := range cat {
		if p.NewServer == nil || p.NewServer() == nil {
			t.Fatalf("platform %s has no hardware constructor", p.Name)
		}
		if got, ok := PlatformByName(p.Name); !ok || got.Name != p.Name {
			t.Fatalf("PlatformByName(%q) = %q, %t", p.Name, got.Name, ok)
		}
	}
}

// TestRequestDefaults pins the documented zero-value behavior.
func TestRequestDefaults(t *testing.T) {
	req := Request{}.WithDefaults()
	if req.Seed != 1 {
		t.Fatalf("defaults: seed %d", req.Seed)
	}
	if req.ValidateTasks != 20000 || req.ValidateSamples != 10000 || req.MaxValidate != 3 {
		t.Fatalf("validation defaults: %d/%d/%d", req.ValidateTasks, req.ValidateSamples, req.MaxValidate)
	}
	if req.Space.MaxServers != 64 || req.Space.Platforms[0] != "big-core" || req.Space.DVFSStates[0] != "P0" {
		t.Fatalf("space defaults: %+v", req.Space)
	}
	if req.Objective.Quantile != 0.95 || req.Objective.ServerCost != 1 || req.Objective.WattCost != 0.01 {
		t.Fatalf("objective defaults: %+v", req.Objective)
	}
}

// TestDVFSAndPlatformTradeoff: with power priced high, the optimizer should
// prefer a slower operating point (or the small-core platform) when it
// still meets a loose target — i.e. the cost model actually steers.
func TestDVFSAndPlatformTradeoff(t *testing.T) {
	plan, err := Search(context.Background(), Input{Twins: testTwins(40)}, Request{
		Objective: Objective{TargetSeconds: 1.0, WattCost: 10},
		Space:     wideSpace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen.Platform != "small-core" || plan.Chosen.DVFS == "P0" {
		t.Fatalf("with watt-heavy pricing and a loose target, chose %+v; want small-core below P0", plan.Chosen)
	}
}
