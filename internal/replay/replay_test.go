package replay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dcmodel/internal/dapper"
	"dcmodel/internal/fault"
	"dcmodel/internal/gfs"
	"dcmodel/internal/hw"
	"dcmodel/internal/kooza"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func gfsTrace(t *testing.T, servers, n int, seed int64) *trace.Trace {
	t.Helper()
	cfg := gfs.DefaultConfig()
	cfg.Chunkservers = servers
	c, err := gfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: n,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReplayReproducesOriginalExactly(t *testing.T) {
	// The engine's core invariant: replaying a GFS trace on an identical
	// platform reproduces every span time and thus every latency.
	tr := gfsTrace(t, 1, 500, 500)
	re, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != tr.Len() {
		t.Fatalf("replayed %d requests, want %d", re.Len(), tr.Len())
	}
	for i, orig := range tr.Requests {
		got := re.Requests[i]
		if got.ID != orig.ID || got.Class != orig.Class {
			t.Fatalf("request %d identity changed", i)
		}
		if math.Abs(got.Latency()-orig.Latency()) > 1e-9 {
			t.Fatalf("request %d latency %g != original %g", i, got.Latency(), orig.Latency())
		}
		for j := range orig.Spans {
			if math.Abs(got.Spans[j].Start-orig.Spans[j].Start) > 1e-9 ||
				math.Abs(got.Spans[j].Duration-orig.Spans[j].Duration) > 1e-9 {
				t.Fatalf("request %d span %d timing mismatch: %+v vs %+v", i, j, got.Spans[j], orig.Spans[j])
			}
		}
	}
}

func TestReplayReproducesCacheHitTrace(t *testing.T) {
	// Requests without a storage phase (page-cache hits) replay exactly
	// too: the memory-row convention matches the generator's.
	cfg := gfs.DefaultConfig()
	cfg.CacheHitProb = 0.5
	c, err := gfs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: 800,
	}, rand.New(rand.NewSource(506)))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range tr.Requests {
		if math.Abs(re.Requests[i].Latency()-orig.Latency()) > 1e-9 {
			t.Fatalf("request %d latency %g != original %g", i, re.Requests[i].Latency(), orig.Latency())
		}
	}
}

func TestReplayMultiServer(t *testing.T) {
	tr := gfsTrace(t, 4, 800, 501)
	re, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range tr.Requests {
		if math.Abs(re.Requests[i].Latency()-orig.Latency()) > 1e-9 {
			t.Fatalf("request %d latency mismatch on multi-server replay", i)
		}
	}
}

func TestReplayPreservesFeatures(t *testing.T) {
	tr := gfsTrace(t, 1, 300, 502)
	re, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range tr.Requests {
		got := re.Requests[i]
		for j, s := range orig.Spans {
			g := got.Spans[j]
			if g.Bytes != s.Bytes || g.LBN != s.LBN || g.Bank != s.Bank || g.Op != s.Op {
				t.Fatalf("request %d span %d features changed: %+v vs %+v", i, j, g, s)
			}
		}
	}
}

func TestReplaySlowerPlatformSlower(t *testing.T) {
	tr := gfsTrace(t, 1, 300, 503)
	fast, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW})
	if err != nil {
		t.Fatal(err)
	}
	slowHW := func() *hw.Server {
		s := gfs.DefaultServerHW()
		s.Disk.TransferRate /= 4
		s.Net.Bandwidth /= 4
		return s
	}
	slow, err := Run(tr, Platform{NewServer: slowHW})
	if err != nil {
		t.Fatal(err)
	}
	var fastMean, slowMean float64
	for i := range fast.Requests {
		fastMean += fast.Requests[i].Latency()
		slowMean += slow.Requests[i].Latency()
	}
	if slowMean <= fastMean {
		t.Errorf("slow platform total %g not above fast %g", slowMean, fastMean)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Run(nil, Platform{NewServer: gfs.DefaultServerHW}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Run(&trace.Trace{}, Platform{NewServer: gfs.DefaultServerHW}); err == nil {
		t.Error("empty trace should fail")
	}
	tr := gfsTrace(t, 1, 10, 504)
	if _, err := Run(tr, Platform{}); err == nil {
		t.Error("missing server factory should fail")
	}
	bad := &trace.Trace{Requests: []trace.Request{{ID: 1, Server: -1}}}
	if _, err := Run(bad, Platform{NewServer: gfs.DefaultServerHW}); err == nil {
		t.Error("negative server should fail")
	}
	badHW := func() *hw.Server { return &hw.Server{} }
	if _, err := Run(tr, Platform{NewServer: badHW}); err == nil {
		t.Error("invalid hardware should fail")
	}
	badSpan := &trace.Trace{Requests: []trace.Request{{
		ID: 1, Spans: []trace.Span{{Subsystem: trace.Subsystem(9)}},
	}}}
	if _, err := Run(badSpan, Platform{NewServer: gfs.DefaultServerHW}); err == nil {
		t.Error("invalid subsystem should fail")
	}
}

func TestReplayExplicitServerCount(t *testing.T) {
	tr := gfsTrace(t, 1, 50, 505)
	re, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW, Servers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 50 {
		t.Errorf("replayed %d", re.Len())
	}
}

// serialRun is Run as it was before the servers replayed side by side:
// every request in arrival order on the calling goroutine, each with spans
// of its own. TestRunParallelMatchesSerial holds Run to it.
func serialRun(tr *trace.Trace, p Platform) (*trace.Trace, error) {
	nServers := p.Servers
	for _, r := range tr.Requests {
		nServers = max(nServers, r.Server+1)
	}
	servers := make([]*serverState, nServers)
	for i := range servers {
		servers[i] = &serverState{hw: p.NewServer()}
	}
	var sched *fault.Schedule
	if p.Faults != nil {
		var err error
		if sched, err = fault.NewSchedule(*p.Faults, nServers, p.FaultStream); err != nil {
			return nil, err
		}
	}
	order := make([]int, tr.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tr.Requests[order[a]].Arrival < tr.Requests[order[b]].Arrival
	})
	out := &trace.Trace{Requests: make([]trace.Request, tr.Len())}
	for _, idx := range order {
		in := tr.Requests[idx]
		req, err := replayRequest(in, make([]trace.Span, 0, len(in.Spans)), servers, sched)
		if err != nil {
			return nil, err
		}
		out.Requests[idx] = req
		if p.Recorder != nil {
			p.Recorder.Record(dapper.FromRequest(req))
		}
	}
	return out, nil
}

func presetTrace(t testing.TB, name string, n int, seed int64) *trace.Trace {
	t.Helper()
	s, err := spec.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(spec.Options{Requests: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// matchSerial replays tr through Run and the serial oracle, each with a
// recorder, and demands the same trace, the same error and the same trees
// in the same order.
func matchSerial(t *testing.T, name string, tr *trace.Trace, p Platform) {
	t.Helper()
	var gotTrees, wantTrees dapper.Collector
	p.Recorder = &gotTrees
	got, gotErr := Run(tr, p)
	p.Recorder = &wantTrees
	want, wantErr := serialRun(tr, p)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, serial replay says %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replay differs from the serial replay", name)
	}
	if !reflect.DeepEqual(gotTrees.Trees(), wantTrees.Trees()) {
		t.Fatalf("%s: recorder got %d trees, serial replay records %d, or in another order", name, gotTrees.Len(), wantTrees.Len())
	}
}

// TestRunParallelMatchesSerial: replaying each server's requests on a
// goroutine of its own changes no bit of the output, no recorded tree and
// no tree order, whatever the server count and however the trace is
// ordered.
func TestRunParallelMatchesSerial(t *testing.T) {
	p := Platform{NewServer: gfs.DefaultServerHW}
	for _, name := range spec.Names() {
		matchSerial(t, name, presetTrace(t, name, 2000, 3), p)
	}

	src := gfsTrace(t, 4, 1500, 31)
	m, err := kooza.Train(src, kooza.Options{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(2000, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	matchSerial(t, "synthesized", synth, p)
	matchSerial(t, "one server", gfsTrace(t, 1, 800, 33), p)
	matchSerial(t, "idle servers", gfsTrace(t, 2, 400, 34), Platform{NewServer: gfs.DefaultServerHW, Servers: 16})

	wide := presetTrace(t, "webtier", 3000, 35)
	for i := range wide.Requests {
		wide.Requests[i].Server = i % 64
	}
	matchSerial(t, "64 servers", wide, p)

	shuffled := presetTrace(t, "mapreduce", 2000, 36)
	rand.New(rand.NewSource(37)).Shuffle(shuffled.Len(), func(i, j int) {
		shuffled.Requests[i], shuffled.Requests[j] = shuffled.Requests[j], shuffled.Requests[i]
	})
	matchSerial(t, "out of arrival order", shuffled, p)
}

// TestRunReportsEarliestFailure: two servers each hold a request with an
// invalid subsystem. The error names the one that arrives first, wherever
// it sits in the trace and whichever server finishes first, and the
// recorder sees exactly the requests that arrive before it.
func TestRunReportsEarliestFailure(t *testing.T) {
	tr := gfsTrace(t, 4, 400, 38)
	byArrival := append([]trace.Request(nil), tr.Requests...)
	sort.SliceStable(byArrival, func(a, b int) bool { return byArrival[a].Arrival < byArrival[b].Arrival })
	early, late := byArrival[100], byArrival[300]
	for _, r := range byArrival[101:] {
		if r.Server != early.Server {
			late = r
			break
		}
	}
	for i := range tr.Requests {
		if id := tr.Requests[i].ID; id == early.ID || id == late.ID {
			spans := append([]trace.Span(nil), tr.Requests[i].Spans...)
			spans[len(spans)-1].Subsystem = trace.Subsystem(9)
			tr.Requests[i].Spans = spans
		}
	}
	// The later request comes first in the slice.
	for i := range tr.Requests {
		if tr.Requests[i].ID == late.ID {
			tr.Requests[0], tr.Requests[i] = tr.Requests[i], tr.Requests[0]
		}
	}
	matchSerial(t, "two failing servers", tr, Platform{NewServer: gfs.DefaultServerHW})
	var col dapper.Collector
	_, err := Run(tr, Platform{NewServer: gfs.DefaultServerHW, Recorder: &col})
	if want := fmt.Sprintf("replay: request %d has invalid subsystem 9", early.ID); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if col.Len() != 100 {
		t.Fatalf("recorder got %d trees, want the 100 requests arriving before the failure", col.Len())
	}
}

// TestRunFaultedMatchesSerial: with a fault schedule armed, whose rack
// failure processes the servers of a rack share, replay equals the serial
// replay.
func TestRunFaultedMatchesSerial(t *testing.T) {
	tr := gfsTrace(t, 4, 600, 39)
	matchSerial(t, "faulted", tr, Platform{
		NewServer:   gfs.DefaultServerHW,
		Faults:      &fault.Config{MTBF: 1.5, MTTR: 0.4, RackSize: 2, Seed: 4},
		FaultStream: 3,
	})
}

// BenchmarkReplayRun replays 5000 mapreduce requests; run it with -cpu 1,2
// to see what replaying the servers side by side buys.
func BenchmarkReplayRun(b *testing.B) {
	tr := presetTrace(b, "mapreduce", 5000, 1)
	p := Platform{NewServer: gfs.DefaultServerHW}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/req")
}
