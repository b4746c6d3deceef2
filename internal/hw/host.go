package hw

import "dcmodel/internal/trace"

// Host is one server's hardware plus the instant each of its four
// subsystems next falls free, indexed by trace.Subsystem. Each subsystem
// serves spans first come, first served (a flow shop).
type Host struct {
	*Server
	FreeAt [4]float64
}

// Exec times spans back to back from ready: a span starts once the span
// before it has ended and its subsystem is free, and lasts what the
// subsystem's model charges for its features. Exec writes each span's
// Start and Duration, never reading the old ones, and returns the end of
// the last span and the CPU time the spans used. A memory span's DRAM row
// derives from storageLBN, the request's storage target (buffer and
// checksum pages are tied to the accessed blocks; 0 when the request has
// no storage span). Every span's Subsystem must be one of the four.
func (h *Host) Exec(spans []trace.Span, ready float64, storageLBN int64) (end, cpu float64) {
	end = ready
	for i := range spans {
		s := &spans[i]
		var dur float64
		switch s.Subsystem {
		case trace.Network:
			dur = h.Net.TransferTime(s.Bytes)
		case trace.CPU:
			dur = h.CPU.Time(s.Bytes)
			cpu += dur
		case trace.Memory:
			dur = h.Mem.Access(s.Bank, (storageLBN*4096)/h.Mem.RowBytes, s.Bytes)
		case trace.Storage:
			dur = h.Disk.Access(s.LBN, s.Bytes)
		}
		start := end
		if f := h.FreeAt[s.Subsystem]; f > start {
			start = f
		}
		s.Start, s.Duration = start, dur
		end = start + dur
		h.FreeAt[s.Subsystem] = end
	}
	return end, cpu
}

// SetUtil records a request's CPU utilization on each of its CPU spans:
// the CPU time its spans used over its residence time, capped at 1 — the
// quantity the paper's processor model captures. Residence counts retry
// and timeout delays, so utilization sinks as fault tails inflate.
func SetUtil(spans []trace.Span, cpu, residence float64) {
	util := 0.0
	if residence > 0 {
		util = cpu / residence
	}
	if util > 1 {
		util = 1
	}
	for i := range spans {
		if spans[i].Subsystem == trace.CPU {
			spans[i].Util = util
		}
	}
}
