package dcmodel

import (
	"reflect"
	"testing"
)

// Top-level determinism regression tests: the parallel engines must produce
// output that depends only on (config, shards, seed) — never on the worker
// count or goroutine scheduling. Workers=1 is the serial reference.

func TestShardedSimulateGFSDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Trace {
		tr, err := Simulate(DefaultGFSConfig(), GFSRun{
			RunConfig: RunConfig{Mix: Table2Mix(), Requests: 800,
				Seed: 21, Shards: 8, Workers: workers},
			Rate: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sharded open-loop trace differs between Workers=1 and Workers=8")
	}
	if serial.Len() != 800 {
		t.Fatalf("requests = %d", serial.Len())
	}
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSimulateGFSClosedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Trace {
		tr, err := SimulateClosed(DefaultGFSConfig(), GFSClosedRun{
			RunConfig: RunConfig{Mix: Table2Mix(), Requests: 600,
				Seed: 22, Shards: 4, Workers: workers},
			Users:     8,
			MeanThink: 0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sharded closed-loop trace differs between Workers=1 and Workers=8")
	}
	if serial.Len() != 600 {
		t.Fatalf("requests = %d", serial.Len())
	}
	if err := serial.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossExamineDeterministicAcrossWorkers(t *testing.T) {
	tr := simulate(t, 1200, 20, 23)
	run := func(workers int) []Scores {
		scores, err := CrossExamine(tr, DefaultPlatform(), CrossExamOptions{
			Requests:       600,
			Seed:           24,
			Workers:        workers,
			SkipThroughput: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) != 3 || len(parallel) != 3 {
		t.Fatalf("scores = %d vs %d, want 3", len(serial), len(parallel))
	}
	for i := range serial {
		// Scores is all comparable scalars: demand bit-identity, not just
		// approximate agreement.
		if serial[i] != parallel[i] {
			t.Errorf("approach %s: Scores differ between Workers=1 and Workers=8:\nserial:   %+v\nparallel: %+v",
				serial[i].Name, serial[i], parallel[i])
		}
	}
}

// TestSameSeedEndToEnd runs the whole pipeline twice with the same seeds —
// sharded simulation, training and synthesis for all three approaches —
// and demands identical output. This is the audit that no stage draws from
// a global or time-seeded rand source.
func TestSameSeedEndToEnd(t *testing.T) {
	type result struct {
		trace      *Trace
		ib, id, kz *Trace
	}
	run := func() result {
		tr, err := Simulate(DefaultGFSConfig(), GFSRun{
			RunConfig: RunConfig{Mix: Table2Mix(), Requests: 1000,
				Seed: 25, Shards: 4, Workers: 0},
			Rate: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		ibm, err := Train(tr, InBreadth)
		if err != nil {
			t.Fatal(err)
		}
		idm, err := Train(tr, InDepth)
		if err != nil {
			t.Fatal(err)
		}
		kzm, err := Train(tr, Kooza)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		res.trace = tr
		if res.ib, err = SynthesizeSharded(ibm.Synthesize, 400, 4, 0, 26); err != nil {
			t.Fatal(err)
		}
		if res.id, err = SynthesizeSharded(idm.Synthesize, 400, 4, 0, 27); err != nil {
			t.Fatal(err)
		}
		if res.kz, err = SynthesizeSharded(kzm.Synthesize, 400, 4, 0, 28); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Error("same-seed sharded simulation traces differ")
	}
	if !reflect.DeepEqual(a.ib, b.ib) {
		t.Error("same-seed in-breadth synthesis differs")
	}
	if !reflect.DeepEqual(a.id, b.id) {
		t.Error("same-seed in-depth synthesis differs")
	}
	if !reflect.DeepEqual(a.kz, b.kz) {
		t.Error("same-seed KOOZA synthesis differs")
	}
}

func TestSynthesizeShardedInvariants(t *testing.T) {
	tr := simulate(t, 1000, 20, 29)
	m, err := Train(tr, Kooza)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SynthesizeSharded(m.Synthesize, 500, 5, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SynthesizeSharded(m.Synthesize, 500, 5, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sharded synthesis differs between Workers=1 and Workers=8")
	}
	if serial.Len() != 500 {
		t.Fatalf("requests = %d", serial.Len())
	}
	for i := 1; i < serial.Len(); i++ {
		if serial.Requests[i].Arrival < serial.Requests[i-1].Arrival {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	for i, r := range serial.Requests {
		if r.ID != int64(i) {
			t.Fatalf("request %d has ID %d, want dense IDs", i, r.ID)
		}
	}
	if _, err := SynthesizeSharded(m.Synthesize, 500, 0, 1, 30); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := SynthesizeSharded(m.Synthesize, 3, 5, 1, 30); err == nil {
		t.Error("fewer requests than shards should fail")
	}
}
