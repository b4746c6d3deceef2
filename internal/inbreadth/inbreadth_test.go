package inbreadth

import (
	"math"
	"math/rand"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func gfsTrace(t *testing.T, n int, seed int64) *trace.Trace {
	t.Helper()
	c, err := gfs.NewCluster(gfs.DefaultConfig())
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

func TestTrainBasics(t *testing.T) {
	tr := gfsTrace(t, 2000, 700)
	m, err := Train(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainedOn != 2000 {
		t.Errorf("TrainedOn = %d", m.TrainedOn)
	}
	if m.Storage == nil || m.CPU == nil || m.Memory == nil {
		t.Fatal("missing subsystem models")
	}
	// Structural stats: GFS requests have 2 network, 2 cpu, 1 memory, 1
	// storage span.
	if math.Abs(m.SpansPerRequest[trace.Network]-2) > 0.01 ||
		math.Abs(m.SpansPerRequest[trace.Storage]-1) > 0.01 {
		t.Errorf("spans per request = %v", m.SpansPerRequest)
	}
	if m.NumParams() <= 0 {
		t.Error("NumParams should be positive")
	}
	if len(m.Chains()) != 3 {
		t.Error("Chains should expose the three Markov chains")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Train(&trace.Trace{}, Options{}); err == nil {
		t.Error("empty trace should fail")
	}
	bad := &trace.Trace{Requests: []trace.Request{{ID: 1, Arrival: -1}}}
	if _, err := Train(bad, Options{}); err == nil {
		t.Error("invalid trace should fail")
	}
}

func TestSynthesizeMarginalsGoodStructureLost(t *testing.T) {
	// The in-breadth signature: pooled (marginal) feature distributions
	// match well, but the phase structure and per-class correlations are
	// lost.
	tr := gfsTrace(t, 3000, 701)
	m, err := Train(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(3000, rand.New(rand.NewSource(702)))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pooled storage sizes: KS distance small.
	o := tr.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.Bytes) })
	sy := synth.SpanFeature(trace.Storage, func(s trace.Span) float64 { return float64(s.Bytes) })
	if ks := stats.KSTest2(o, sy).Statistic; ks > 0.05 {
		t.Errorf("pooled storage-size KS = %g, want small", ks)
	}
	// Pooled utilization close.
	ou := stats.Mean(tr.SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
	su := stats.Mean(synth.SpanFeature(trace.CPU, func(s trace.Span) float64 { return s.Util }))
	if dev := stats.RelError(ou, su); dev > 0.2 {
		t.Errorf("pooled util deviation %g", dev)
	}
	// Structure lost: phase order differs from the GFS order.
	gfsOrder := []trace.Subsystem{
		trace.Network, trace.CPU, trace.Memory, trace.Storage, trace.CPU, trace.Network,
	}
	var matches int
	for _, r := range synth.Requests {
		p := r.Phases()
		if len(p) == len(gfsOrder) {
			same := true
			for i := range p {
				if p[i] != gfsOrder[i] {
					same = false
					break
				}
			}
			if same {
				matches++
			}
		}
	}
	if matches > 0 {
		t.Errorf("%d synthetic requests matched the GFS phase order; the class-blind model should not know it", matches)
	}
	// Per-request correlation lost: original 4M storage requests always
	// carry 4M network-out; synthetic pairs are independent.
	var correlated, total int
	for _, r := range synth.Requests {
		var st, nt int64
		for _, s := range r.Spans {
			if s.Subsystem == trace.Storage {
				st = s.Bytes
			}
			if s.Subsystem == trace.Network && s.Bytes > nt {
				nt = s.Bytes
			}
		}
		if st == 4<<20 {
			total++
			if nt == 4<<20 {
				correlated++
			}
		}
	}
	if total > 10 && float64(correlated)/float64(total) > 0.9 {
		t.Error("cross-subsystem sizes should not be strongly correlated in the class-blind model")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	tr := gfsTrace(t, 500, 703)
	m, err := Train(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Synthesize(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestGenerateIOStream(t *testing.T) {
	tr := gfsTrace(t, 3000, 704)
	m, err := Train(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(705))
	ios := m.GenerateIOStream(5000, r)
	if len(ios) != 5000 {
		t.Fatalf("stream length %d", len(ios))
	}
	orig := IOStreamFromTrace(tr)
	if len(orig) != 3000 {
		t.Fatalf("original stream length %d", len(orig))
	}
	// Size distribution preserved.
	sizeOf := func(evs []IOEvent) []float64 {
		out := make([]float64, len(evs))
		for i, e := range evs {
			out[i] = float64(e.Bytes)
		}
		return out
	}
	if ks := stats.KSTest2(sizeOf(orig), sizeOf(ios)).Statistic; ks > 0.05 {
		t.Errorf("IO size KS = %g", ks)
	}
	// Read fraction preserved.
	readFrac := func(evs []IOEvent) float64 {
		var n int
		for _, e := range evs {
			if e.Op == trace.OpRead {
				n++
			}
		}
		return float64(n) / float64(len(evs))
	}
	if d := math.Abs(readFrac(orig) - readFrac(ios)); d > 0.05 {
		t.Errorf("read fraction differs by %g", d)
	}
	// Sequentiality preserved (rough).
	seqFrac := func(evs []IOEvent) float64 {
		var seq int
		var prevEnd int64 = -1
		for _, e := range evs {
			if prevEnd >= 0 && e.LBN == prevEnd {
				seq++
			}
			prevEnd = e.LBN + (e.Bytes+4095)/4096
		}
		return float64(seq) / float64(len(evs)-1)
	}
	if d := math.Abs(seqFrac(orig) - seqFrac(ios)); d > 0.1 {
		t.Errorf("sequential fraction differs by %g", d)
	}
}
