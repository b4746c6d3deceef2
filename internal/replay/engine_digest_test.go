package replay

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcmodel/internal/fault"
	"dcmodel/internal/gfs"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/engine_digests.golden")

// digestFaults fails servers often enough that every recovery path of both
// engines runs — refusal at issue, failover to another replica, the jump to
// the earliest recovery when every replica is down, the rollback of an
// attempt a failure cuts short, and re-replication — while retried requests
// stay a minority.
var digestFaults = fault.Config{MTBF: 0.5, MTTR: 0.05, RackSize: 2}

// TestEngineDigests pins the bytes of both engines that advance simulated
// time: the GFS simulator (open and closed loop, one and three replicas,
// with a page cache, healthy and faulted, single and sharded) and replay of
// each of its traces on healthy and on faulted hardware. A refactor of
// either engine must leave every line unchanged.
func TestEngineDigests(t *testing.T) {
	var b strings.Builder
	line := func(name string, tr *trace.Trace, faulted bool) {
		t.Helper()
		var retried, failedOver int
		for _, r := range tr.Requests {
			if r.Retries > 0 {
				retried++
			}
			if r.FailedOver {
				failedOver++
			}
		}
		if faulted && 2*retried >= tr.Len() {
			t.Errorf("%s: %d of %d requests retried; the digest load must keep retries a minority", name, retried, tr.Len())
		}
		fmt.Fprintf(&b, "%s %x requests=%d retried=%d failedover=%d\n",
			name, sha256.Sum256(trace.AppendCSV(nil, tr)), tr.Len(), retried, failedOver)
	}
	replayed := func(name string, tr *trace.Trace, faulted bool) {
		t.Helper()
		line(name, tr, faulted)
		healthy, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
		if err != nil {
			t.Fatalf("%s/replay: %v", name, err)
		}
		line(name+"/replay", healthy, faulted)
		degraded, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW, Faults: &digestFaults, FaultStream: 7})
		if err != nil {
			t.Fatalf("%s/replay-faulted: %v", name, err)
		}
		line(name+"/replay-faulted", degraded, true)
	}
	const n = 1500
	for _, repl := range []int{1, 3} {
		cfg := gfs.DefaultConfig()
		cfg.Chunkservers = 4
		cfg.Replication = repl
		cfg.CacheHitProb = 0.3
		for _, faulted := range []bool{false, true} {
			var fc *fault.Config
			name := fmt.Sprintf("r%d", repl)
			if faulted {
				fc = &digestFaults
				name += "/faulted"
			}
			open := gfs.RunConfig{Mix: workload.Table2Mix(), Arrivals: workload.Poisson{Rate: 20}, Requests: n, Faults: fc}
			closed := gfs.ClosedRunConfig{Mix: workload.Table2Mix(), Users: 4, MeanThink: 0.05, Requests: n, Faults: fc}

			c, err := gfs.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := c.Run(open, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatalf("open/%s: %v", name, err)
			}
			replayed("open/"+name, tr, faulted)

			if c, err = gfs.NewCluster(cfg); err != nil {
				t.Fatal(err)
			}
			if tr, err = c.RunClosed(closed, rand.New(rand.NewSource(42))); err != nil {
				t.Fatalf("closed/%s: %v", name, err)
			}
			replayed("closed/"+name, tr, faulted)

			if tr, err = gfs.SimulateSharded(cfg, open, 3, 2, 43); err != nil {
				t.Fatalf("sharded/%s: %v", name, err)
			}
			line("sharded/"+name, tr, faulted)
			closed.Users = 6
			if tr, err = gfs.SimulateShardedClosed(cfg, closed, 3, 2, 44); err != nil {
				t.Fatalf("sharded-closed/%s: %v", name, err)
			}
			line("sharded-closed/"+name, tr, faulted)
			batch := open
			batch.Mix, batch.Arrivals, batch.Requests = workload.OLTPMix(), workload.Poisson{Rate: 5}, n/3
			if tr, err = gfs.SimulateMulti(cfg, []gfs.RunConfig{open, batch}, 2, 45); err != nil {
				t.Fatalf("multi/%s: %v", name, err)
			}
			line("multi/"+name, tr, faulted)
		}
	}

	path := filepath.Join("testdata", "engine_digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/replay -run TestEngineDigests -update` to regenerate)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("engine output drifted from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
