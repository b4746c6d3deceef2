package hw

import (
	"math"
	"testing"

	"dcmodel/internal/trace"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestDiskSequentialVsRandom(t *testing.T) {
	d := DefaultDisk()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// First access from head 0 to far LBN pays seek + rotation.
	far := d.Access(d.NumBlocks/2, 4096)
	// Access at the head position of a fresh disk is pure transfer.
	d = DefaultDisk()
	seq := d.Access(0, 4096)
	if far <= seq {
		t.Errorf("random access %g not slower than sequential %g", far, seq)
	}
	approx(t, seq, 4096/d.TransferRate, 1e-12, "sequential transfer time")
}

func TestDiskSeekCurveMonotone(t *testing.T) {
	d := DefaultDisk()
	prev := -1.0
	for _, dist := range []int64{1, 10, 1000, 1 << 20, d.NumBlocks - 1} {
		s := d.SeekTime(dist)
		if s <= prev {
			t.Errorf("seek time to %d = %g not increasing", dist, s)
		}
		prev = s
	}
	if d.SeekTime(0) != 0 {
		t.Error("zero-distance seek should be free")
	}
	approx(t, d.SeekTime(d.NumBlocks), d.MaxSeek, 1e-6, "full-stroke seek")
}

func TestDiskHeadAdvances(t *testing.T) {
	d := DefaultDisk()
	d.Access(100, 8192) // 2 blocks at 4 KiB
	if d.Head() != 102 {
		t.Errorf("head = %d, want 102", d.Head())
	}
	// Next sequential access from 102 pays no seek.
	tSeq := d.Access(102, 4096)
	approx(t, tSeq, 4096/d.TransferRate, 1e-12, "sequential after advance")
	// Clamping: out-of-range LBN.
	d.Access(d.NumBlocks+5, 4096)
	if d.Head() >= d.NumBlocks {
		t.Error("head should clamp inside the address space")
	}
	d.Access(-5, -100)
	if d.Head() < 0 {
		t.Error("head should not go negative")
	}
}

func TestDiskValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Disk)
	}{
		{"blocks", func(d *Disk) { d.NumBlocks = 0 }},
		{"blocksize", func(d *Disk) { d.BlockSize = 0 }},
		{"seek", func(d *Disk) { d.MaxSeek = d.MinSeek - 1 }},
		{"rot", func(d *Disk) { d.RotationalLatency = -1 }},
		{"rate", func(d *Disk) { d.TransferRate = 0 }},
	}
	for _, tt := range tests {
		d := DefaultDisk()
		tt.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
	}
}

func TestMemoryRowHitVsMiss(t *testing.T) {
	m := DefaultMemory()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	first := m.Access(0, 7, 64) // cold: row miss
	hit := m.Access(0, 7, 64)   // same row: hit
	miss := m.Access(0, 9, 64)  // new row: miss
	if hit >= first || hit >= miss {
		t.Errorf("row hit %g not faster than misses %g/%g", hit, first, miss)
	}
	approx(t, hit, m.HitLatency+64/m.Bandwidth, 1e-15, "hit latency")
	approx(t, miss, m.MissLatency+64/m.Bandwidth, 1e-15, "miss latency")
}

func TestMemoryBanksIndependent(t *testing.T) {
	m := DefaultMemory()
	m.Access(0, 7, 64)
	// Different bank, same row number: its own open row, so a miss.
	miss := m.Access(1, 7, 64)
	approx(t, miss, m.MissLatency+64/m.Bandwidth, 1e-15, "other bank miss")
	// Back to bank 0 row 7: still open.
	hit := m.Access(0, 7, 64)
	approx(t, hit, m.HitLatency+64/m.Bandwidth, 1e-15, "bank 0 retained row")
	// Bank wrap-around and negatives are clamped.
	m.Access(m.Banks+3, 1, 64)
	m.Access(-1, 1, -64)
}

func TestMemoryValidate(t *testing.T) {
	tests := []func(*Memory){
		func(m *Memory) { m.Banks = 0 },
		func(m *Memory) { m.RowBytes = 0 },
		func(m *Memory) { m.MissLatency = m.HitLatency - 1 },
		func(m *Memory) { m.Bandwidth = 0 },
	}
	for i, mutate := range tests {
		m := DefaultMemory()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCPUTimeLinear(t *testing.T) {
	c := DefaultCPU()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	base := c.Time(0)
	approx(t, base, c.BaseCycles/c.Frequency, 1e-18, "base time")
	t1 := c.Time(1 << 20)
	approx(t, t1-base, float64(1<<20)*c.CyclesPerByte/c.Frequency, 1e-15, "per-byte time")
	if c.Time(-5) != base {
		t.Error("negative bytes should clamp to base")
	}
	bad := &CPU{Frequency: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero frequency should fail")
	}
	bad2 := &CPU{Frequency: 1, BaseCycles: -1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative cycles should fail")
	}
}

func TestNetworkTransferTime(t *testing.T) {
	n := DefaultNetwork()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	approx(t, n.TransferTime(0), n.Latency, 1e-15, "latency only")
	approx(t, n.TransferTime(125_000_000), n.Latency+1, 1e-9, "1s of bandwidth")
	if n.TransferTime(-1) != n.Latency {
		t.Error("negative bytes should clamp")
	}
	if err := (&Network{Latency: -1, Bandwidth: 1}).Validate(); err == nil {
		t.Error("negative latency should fail")
	}
	if err := (&Network{Bandwidth: 0}).Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestServerValidate(t *testing.T) {
	s := DefaultServer()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	missing := &Server{}
	if err := missing.Validate(); err == nil {
		t.Error("missing subsystems should fail")
	}
	bad := DefaultServer()
	bad.Net.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid subsystem should fail server validation")
	}
	bad2 := DefaultServer()
	bad2.Disk.NumBlocks = 0
	if err := bad2.Validate(); err == nil {
		t.Error("invalid disk should fail server validation")
	}
	bad3 := DefaultServer()
	bad3.Mem.Banks = 0
	if err := bad3.Validate(); err == nil {
		t.Error("invalid memory should fail server validation")
	}
	bad4 := DefaultServer()
	bad4.CPU.Frequency = 0
	if err := bad4.Validate(); err == nil {
		t.Error("invalid cpu should fail server validation")
	}
}

// TestHostExecQueuesSpans: spans run back to back, each behind its
// subsystem's queue, timed from features alone — a span's old timing is
// overwritten, not read.
func TestHostExecQueuesSpans(t *testing.T) {
	h := &Host{Server: DefaultServer()}
	h.FreeAt[trace.CPU] = 2
	spans := []trace.Span{
		{Subsystem: trace.Network, Bytes: 1000, Start: 9, Duration: 9},
		{Subsystem: trace.CPU, Bytes: 1000},
		{Subsystem: trace.CPU},
	}
	end, cpu := h.Exec(spans, 1, 0)
	net, c1, c0 := h.Net.TransferTime(1000), h.CPU.Time(1000), h.CPU.Time(0)
	want := []struct{ start, dur float64 }{{1, net}, {2, c1}, {2 + c1, c0}}
	for i, w := range want {
		if spans[i].Start != w.start || spans[i].Duration != w.dur {
			t.Errorf("span %d runs [%g, +%g], want [%g, +%g]", i, spans[i].Start, spans[i].Duration, w.start, w.dur)
		}
	}
	if end != 2+c1+c0 || cpu != c1+c0 {
		t.Errorf("Exec = (%g, %g), want (%g, %g)", end, cpu, 2+c1+c0, c1+c0)
	}
	if h.FreeAt[trace.CPU] != end || h.FreeAt[trace.Network] != 1+net {
		t.Errorf("queues free at %v", h.FreeAt)
	}
}

func TestSetUtil(t *testing.T) {
	spans := []trace.Span{{Subsystem: trace.CPU}, {Subsystem: trace.Network}}
	for _, c := range []struct{ cpu, residence, want float64 }{{1, 4, 0.25}, {5, 4, 1}, {1, 0, 0}} {
		SetUtil(spans, c.cpu, c.residence)
		if spans[0].Util != c.want || spans[1].Util != 0 {
			t.Errorf("SetUtil(%g, %g) = %v, want CPU util %g", c.cpu, c.residence, spans, c.want)
		}
	}
}
