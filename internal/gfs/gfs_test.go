package gfs

import (
	"math/rand"
	"reflect"
	"testing"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runTrace(t *testing.T, c *Cluster, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := c.Run(RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: n,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewClusterValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no servers", func(c *Config) { c.Chunkservers = 0 }},
		{"zero chunk", func(c *Config) { c.ChunkSize = 0 }},
		{"no files", func(c *Config) { c.Files = 0 }},
		{"small file", func(c *Config) { c.FileSize = 1 }},
		{"negative skew", func(c *Config) { c.PopularitySkew = -1 }},
		{"negative segment", func(c *Config) { c.SegmentBytes = -1 }},
		{"bad cache prob", func(c *Config) { c.CacheHitProb = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := NewCluster(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := NewCluster(DefaultConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestNewClusterDiskCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Files = 100000 // 100k x 256 MiB >> 512 GiB
	if _, err := NewCluster(cfg); err == nil {
		t.Error("overfull disk should fail placement")
	}
}

func TestMasterLookup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chunkservers = 4
	c := testCluster(t, cfg)
	m := c.master
	if len(m.chunks) != cfg.Files*int(cfg.FileSize/cfg.ChunkSize) {
		t.Errorf("chunks = %d", len(m.chunks))
	}
	srvs, lbns, err := m.Replicas(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, lbn := srvs[0], lbns[0]
	if srv < 0 || srv >= 4 || lbn < 0 {
		t.Errorf("lookup = %d, %d", srv, lbn)
	}
	// Offsets inside the same chunk resolve to the same server and
	// consecutive LBNs.
	srvs, lbns, err = m.Replicas(0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if srvs[0] != srv || lbns[0] != lbn+2 {
		t.Errorf("intra-chunk lookup: (%d,%d) vs (%d,%d)", srvs[0], lbns[0], srv, lbn)
	}
	if _, _, err := m.Replicas(-1, 0); err == nil {
		t.Error("bad file should fail")
	}
	if _, _, err := m.Replicas(0, cfg.FileSize*2); err == nil {
		t.Error("bad offset should fail")
	}
	if _, _, err := m.Replicas(99999, 0); err == nil {
		t.Error("bad file should fail replicas")
	}
	if _, _, err := m.Replicas(0, -cfg.ChunkSize); err == nil {
		t.Error("negative offset should fail replicas")
	}
}

func TestRunProducesFigure1Structure(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	tr := runTrace(t, c, 200, 400)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	want := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	for _, r := range tr.Requests {
		if !reflect.DeepEqual(r.Phases(), want) {
			t.Fatalf("request %d phases = %v, want %v", r.ID, r.Phases(), want)
		}
		// Spans are causally ordered.
		for i := 1; i < len(r.Spans); i++ {
			if r.Spans[i].Start+1e-12 < r.Spans[i-1].End() {
				t.Fatalf("request %d span %d starts before previous ends", r.ID, i)
			}
		}
	}
}

func TestRunTable2Features(t *testing.T) {
	// The two validation classes must carry the paper's Table 2 features:
	// request size on the network, memory size/type, storage size/type.
	c := testCluster(t, DefaultConfig())
	tr := runTrace(t, c, 500, 401)
	reads := tr.ByClass("read64K")
	writes := tr.ByClass("write4M")
	if reads.Len() == 0 || writes.Len() == 0 {
		t.Fatal("both classes should appear")
	}
	for _, r := range reads.Requests {
		st := r.SpansIn(trace.Storage)[0]
		if st.Bytes != 64<<10 || st.Op != trace.OpRead {
			t.Fatalf("read storage span = %+v", st)
		}
		mem := r.SpansIn(trace.Memory)[0]
		if mem.Bytes != 16<<10 || mem.Op != trace.OpRead {
			t.Fatalf("read memory span = %+v (want 16K read)", mem)
		}
		// Response network span carries the payload.
		net := r.SpansIn(trace.Network)
		if net[1].Bytes != 64<<10 {
			t.Fatalf("read network out = %d", net[1].Bytes)
		}
	}
	for _, w := range writes.Requests {
		st := w.SpansIn(trace.Storage)[0]
		if st.Bytes != 4<<20 || st.Op != trace.OpWrite {
			t.Fatalf("write storage span = %+v", st)
		}
		mem := w.SpansIn(trace.Memory)[0]
		if mem.Bytes != 256<<10 || mem.Op != trace.OpWrite {
			t.Fatalf("write memory span = %+v (want 256K write)", mem)
		}
		net := w.SpansIn(trace.Network)
		if net[0].Bytes != 4<<20 {
			t.Fatalf("write network in = %d", net[0].Bytes)
		}
	}
}

func TestRunLatencyBallpark(t *testing.T) {
	// Latencies should land in the paper's order of magnitude
	// (milliseconds to tens of milliseconds).
	c := testCluster(t, DefaultConfig())
	tr := runTrace(t, c, 1000, 402)
	readLat := stats.Mean(tr.ByClass("read64K").Latencies())
	writeLat := stats.Mean(tr.ByClass("write4M").Latencies())
	if readLat < 0.001 || readLat > 0.05 {
		t.Errorf("64K read latency = %g s, want ~0.01", readLat)
	}
	if writeLat < 0.005 || writeLat > 0.1 {
		t.Errorf("4M write latency = %g s, want ~0.02", writeLat)
	}
	if writeLat <= readLat {
		t.Errorf("write %g should exceed read %g", writeLat, readLat)
	}
	// CPU utilization per request: a few percent, write above read.
	readUtil := stats.Mean(tr.ByClass("read64K").SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
	writeUtil := stats.Mean(tr.ByClass("write4M").SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
	if readUtil <= 0 || readUtil > 0.2 {
		t.Errorf("read CPU util = %g, want small positive", readUtil)
	}
	if writeUtil <= readUtil {
		t.Errorf("write util %g should exceed read util %g", writeUtil, readUtil)
	}
}

func TestSequentialityLowersStorageTime(t *testing.T) {
	mkMix := func(seq float64) *workload.Mix {
		m, err := workload.NewMix([]workload.ClassSpec{{
			Name: "r", Weight: 1, Op: trace.OpRead,
			Size:           stats.Deterministic{Value: 64 << 10},
			SequentialProb: seq,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(seq float64) float64 {
		c := testCluster(t, DefaultConfig())
		tr, err := c.Run(RunConfig{
			Mix:      mkMix(seq),
			Arrivals: workload.Poisson{Rate: 10},
			Requests: 800,
		}, rand.New(rand.NewSource(403)))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(tr.SpanFeature(trace.Storage, func(s trace.Span) float64 { return s.Duration }))
	}
	random := run(0)
	sequential := run(0.95)
	if sequential >= random*0.7 {
		t.Errorf("sequential storage time %g not clearly below random %g", sequential, random)
	}
}

func TestReplicationSlowsWrites(t *testing.T) {
	run := func(replication int) float64 {
		cfg := DefaultConfig()
		cfg.Chunkservers = 3
		cfg.Replication = replication
		c := testCluster(t, cfg)
		tr := runTrace(t, c, 400, 404)
		return stats.Mean(tr.ByClass("write4M").Latencies())
	}
	r1 := run(1)
	r3 := run(3)
	if r3 <= r1 {
		t.Errorf("3-way replicated writes %g not slower than unreplicated %g", r3, r1)
	}
}

func TestRunDeterministicSeed(t *testing.T) {
	c1 := testCluster(t, DefaultConfig())
	c2 := testCluster(t, DefaultConfig())
	tr1 := runTrace(t, c1, 300, 405)
	tr2 := runTrace(t, c2, 300, 405)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("same seed should reproduce the trace exactly")
	}
}

func TestRunErrors(t *testing.T) {
	c := testCluster(t, DefaultConfig())
	r := rand.New(rand.NewSource(1))
	if _, err := c.Run(RunConfig{Arrivals: workload.Poisson{Rate: 1}, Requests: 1}, r); err == nil {
		t.Error("nil mix should fail")
	}
	if _, err := c.Run(RunConfig{Mix: workload.Table2Mix(), Requests: 1}, r); err == nil {
		t.Error("nil arrivals should fail")
	}
	if _, err := c.Run(RunConfig{Mix: workload.Table2Mix(), Arrivals: workload.Poisson{Rate: 1}}, r); err == nil {
		t.Error("zero requests should fail")
	}
}

func TestCacheHitsSkipStorage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheHitProb = 0.5
	c := testCluster(t, cfg)
	tr := runTrace(t, c, 2000, 409)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	reads := tr.ByClass("read64K")
	var hits, misses int
	var hitLat, missLat float64
	for _, r := range reads.Requests {
		if len(r.SpansIn(trace.Storage)) == 0 {
			hits++
			hitLat += r.Latency()
			// The memory phase carries the full payload on a hit.
			if mem := r.SpansIn(trace.Memory); mem[0].Bytes != 64<<10 {
				t.Fatalf("hit memory bytes = %d, want full payload", mem[0].Bytes)
			}
		} else {
			misses++
			missLat += r.Latency()
		}
	}
	frac := float64(hits) / float64(reads.Len())
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("hit fraction = %g, want ~0.5", frac)
	}
	if hitLat/float64(hits) >= missLat/float64(misses)/3 {
		t.Errorf("hits (%g) should be far faster than misses (%g)",
			hitLat/float64(hits), missLat/float64(misses))
	}
	// Writes are unaffected by the cache.
	for _, w := range tr.ByClass("write4M").Requests {
		if len(w.SpansIn(trace.Storage)) != 1 {
			t.Fatal("write lost its storage phase")
		}
	}
}

func TestMultiServerSpreadsLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chunkservers = 4
	cfg.PopularitySkew = 0 // uniform
	c := testCluster(t, cfg)
	tr := runTrace(t, c, 2000, 407)
	counts := make([]int, 4)
	for _, r := range tr.Requests {
		counts[r.Server]++
	}
	for s, n := range counts {
		if n < 300 {
			t.Errorf("server %d got %d requests, want roughly balanced", s, n)
		}
	}
}

func TestPopularitySkewConcentratesFiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chunkservers = 8
	cfg.Files = 64
	cfg.PopularitySkew = 1.2
	c := testCluster(t, cfg)
	tr := runTrace(t, c, 2000, 408)
	counts := make(map[int]int)
	for _, r := range tr.Requests {
		counts[r.Server]++
	}
	// Skewed popularity over round-robin-placed files: the busiest server
	// should clearly exceed the average load. Under uniform popularity the
	// max is ~250 with a multinomial sd of ~15, so 1.2x the mean (300) is
	// >3 sd above uniform while the skewed statistic lands at 310-335
	// across seeds.
	var maxN int
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
	}
	if maxN < 2000/8*6/5 {
		t.Errorf("max server load %d not skewed above mean %d", maxN, 2000/8)
	}
}
