package dcmodel_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dcmodel"
)

// mapreduceRequest is the EXPERIMENTS.md provisioning recipe: the PR 9
// manual twin search on the mapreduce scenario chose 21 servers for a
// 20 ms p95; the optimizer must reproduce it.
func mapreduceRequest() dcmodel.ProvisionRequest {
	return dcmodel.ProvisionRequest{
		Spec:      "mapreduce",
		Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.02},
		Space:     dcmodel.ProvisionSpace{MaxServers: 32},
	}
}

// TestProvisionMapreduce is the PR acceptance criterion: the optimizer
// reproduces the manual 21-server answer, byte-identical across worker
// counts.
func TestProvisionMapreduce(t *testing.T) {
	if testing.Short() {
		t.Skip("spec generation + DES validation in -short mode")
	}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		req := mapreduceRequest()
		req.Workers = workers
		plan, err := dcmodel.Provision(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if plan.Chosen.Servers != 21 {
			t.Fatalf("workers=%d: chose %d servers, want 21", workers, plan.Chosen.Servers)
		}
		if !plan.Feasible || plan.Validated == nil || !plan.Validated.Passed {
			t.Fatalf("workers=%d: plan not DES-validated: feasible=%v validated=%+v",
				workers, plan.Feasible, plan.Validated)
		}
		if plan.TwinEvals <= plan.DESRuns {
			t.Fatalf("twin-first contract: %d twin evals vs %d DES runs", plan.TwinEvals, plan.DESRuns)
		}
		got, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("plan bytes differ at workers=%d", workers)
		}
	}
}

// TestProvisionValidation: requests without a workload or with structural
// problems wrap ErrBadConfig.
func TestProvisionValidation(t *testing.T) {
	cases := []dcmodel.ProvisionRequest{
		{Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.02}}, // no trace, no spec
		{Spec: "mapreduce", Objective: dcmodel.ProvisionObjective{TargetSeconds: -1}},
		{Spec: "mapreduce", Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.02},
			Space: dcmodel.ProvisionSpace{Platforms: []string{"quantum"}}},
	}
	for i, req := range cases {
		if _, err := dcmodel.Provision(context.Background(), req); !errors.Is(err, dcmodel.ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	if _, err := dcmodel.Provision(context.Background(), dcmodel.ProvisionRequest{
		Spec:      "mapreduce",
		Model:     "tarot",
		Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.02},
	}); err == nil {
		t.Error("unknown model should fail")
	}
}

// TestProvisionNoFeasibleConfig: an unreachable target surfaces the
// sentinel with the best-effort plan intact.
func TestProvisionNoFeasibleConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("spec generation in -short mode")
	}
	req := mapreduceRequest()
	req.Objective.TargetSeconds = 1e-9
	plan, err := dcmodel.Provision(context.Background(), req)
	if !errors.Is(err, dcmodel.ErrNoFeasibleConfig) {
		t.Fatalf("err = %v, want ErrNoFeasibleConfig", err)
	}
	if plan.Feasible || len(plan.Trail) == 0 {
		t.Fatalf("best-effort plan missing its audit trail: feasible=%v steps=%d", plan.Feasible, len(plan.Trail))
	}
}
