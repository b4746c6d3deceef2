package optimize

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updatePlans = flag.Bool("update", false, "regenerate testdata/plan_digests.golden")

// TestPlanDigestsGolden pins the plan Search answers, by sha256 of its JSON
// and by its error, at every point of a grid: three arrival rates, a
// single-platform space, wideSpace and a 64-server space of both platforms,
// three DVFS states and up to three replicas, and four targets, the last of
// which no configuration meets.
func TestPlanDigestsGolden(t *testing.T) {
	spaces := []struct {
		name  string
		space Space
	}{
		{"single", Space{MaxServers: 32}},
		{"wide", wideSpace()},
		{"wide64", Space{
			MaxServers:  64,
			Platforms:   []string{"big-core", "small-core"},
			DVFSStates:  []string{"P0", "P1", "P2"},
			MaxReplicas: 3,
		}},
	}
	var out bytes.Buffer
	for _, lambda := range []float64{30, 120, 400} {
		for _, sp := range spaces {
			for _, target := range []float64{0.02, 0.05, 0.2, 1e-9} {
				plan, err := Search(context.Background(), Input{Twins: testTwins(lambda)}, Request{
					Objective: Objective{TargetSeconds: target},
					Space:     sp.space,
				})
				msg := "-"
				if err != nil {
					msg = err.Error()
				}
				fmt.Fprintf(&out, "lambda=%g space=%s target=%g %x err=%q\n",
					lambda, sp.name, target, sha256.Sum256(planJSON(t, plan)), msg)
			}
		}
	}
	golden := filepath.Join("testdata", "plan_digests.golden")
	if *updatePlans {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/optimize -run TestPlanDigestsGolden -update` to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("plans drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
