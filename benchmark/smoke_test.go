package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifestFile is the part of BENCHMARK.json the drift guard reads.
type manifestFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

// TestSmoke runs every workload at about a fiftieth of its size, untraced and
// traced, and guards against drift between the code and BENCHMARK.json: each
// name the file lists is emitted exactly once and nothing else is, every
// value is finite, and the lists stay within the contract's sizes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real servers on loopback sockets")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if want, err := json.MarshalIndent(manifest(), "", "  "); err != nil || string(want)+"\n" != string(data) {
		t.Errorf("BENCHMARK.json is not what `go -C benchmark run . -manifest` prints (%v)", err)
	}
	if len(mf.EndToEnd) > 16 || len(mf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, contract allows 16 and 128", len(mf.EndToEnd), len(mf.PerLayer))
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(mf.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, listed []manifestMetric, res *report) {
		t.Helper()
		want := map[string]string{}
		for _, m := range listed {
			if _, dup := want[m.Name]; dup || !nameOK.MatchString(m.Name) {
				t.Errorf("metric name %q is listed twice or malformed", m.Name)
			}
			want[m.Name] = m.Unit
		}
		for name, v := range res.Metrics {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("emitted %s [%s], BENCHMARK.json says [%s] (listed: %t)", name, v.Unit, unit, ok)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s is not finite", name)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s is listed in BENCHMARK.json but was not emitted", name)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("correct=%t attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
		}
	}
	cfg := runConfig{seed: 1, seconds: 0.3, scale: 0.02, setupRepeats: 1, outDir: t.TempDir()}
	for i, def := range workloads {
		if mf.Workloads[i].Name != def.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, mf.Workloads[i].Name, def.name)
		}
		t.Run(def.name, func(t *testing.T) {
			res, err := measureEndToEnd(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, mf.EndToEnd, res)
			for name, v := range res.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if res, err = measureLayers(def, cfg); err != nil {
				t.Fatal(err)
			}
			check(t, mf.PerLayer, res)
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which the driver uses for the spreads.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if p := qualifyingTail(999); p != 95 {
		t.Errorf("qualifyingTail(999) = p%g, want p95", p)
	}
}
