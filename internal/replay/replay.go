// Package replay executes a workload trace — original or synthetic — on a
// simulated server platform (internal/hw) and measures the resulting
// timing. Replaying both the original and the model-generated workload on
// the same platform is how the validation experiments compare performance
// metrics, mirroring the paper's methodology of measuring synthetic
// requests against the originals on one system.
//
// Replay consumes span features only (sizes, LBNs, banks, operation
// types), never recorded durations: all timing is recomputed from the
// platform models. For a trace produced by the GFS simulator on an
// identical platform, replay reproduces the original timing exactly
// (single-replica configurations), which is the engine's core invariant.
package replay

import (
	"fmt"
	"sort"

	"dcmodel/internal/dapper"
	"dcmodel/internal/fault"
	"dcmodel/internal/hw"
	"dcmodel/internal/par"
	"dcmodel/internal/trace"
)

// Platform describes the simulated hardware the workload runs on.
type Platform struct {
	// NewServer builds one server's hardware models. Required. It is called
	// once per server and must not hand out shared state: without Faults,
	// the servers replay side by side.
	NewServer func() *hw.Server
	// Servers is the number of servers; 0 infers max(Server)+1 from the
	// trace.
	Servers int
	// Faults, when non-nil, degrades the platform: server slots fail and
	// recover on Markov-modulated timelines, and a request in flight on a
	// failing slot is requeued — it waits out the repair plus a client
	// timeout with exponential backoff and re-executes on the recovered
	// server, with its Retries annotation incremented. Nil replays on
	// healthy hardware, bit for bit as before.
	Faults *fault.Config
	// FaultStream selects the failure-history sub-stream when Faults is
	// armed (see gfs.RunConfig.FaultStream).
	FaultStream uint64
	// Recorder, when non-nil, receives one dapper span tree per replayed
	// request, in replay (arrival) order — the shared tracing seam (see
	// dapper.Recorder). Recording reads the finished request only and
	// perturbs no timing; wrap the recorder with obs.SampleEvery to keep a
	// fraction.
	Recorder dapper.Recorder
}

// serverState is one server's hardware plus per-subsystem availability
// (the same flow-shop contention model the GFS simulator uses).
type serverState struct {
	hw     *hw.Server
	freeAt [4]float64
}

// Run replays tr on the platform and returns a new trace with identical
// features but recomputed span timing and per-request CPU utilization.
func Run(tr *trace.Trace, p Platform) (*trace.Trace, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if p.NewServer == nil {
		return nil, fmt.Errorf("replay: platform needs a NewServer factory")
	}
	nServers := p.Servers
	for _, r := range tr.Requests {
		if r.Server+1 > nServers {
			nServers = r.Server + 1
		}
		if r.Server < 0 {
			return nil, fmt.Errorf("replay: request %d has negative server", r.ID)
		}
	}
	servers := make([]*serverState, nServers)
	for i := range servers {
		srv := p.NewServer()
		if err := srv.Validate(); err != nil {
			return nil, fmt.Errorf("replay: server %d: %w", i, err)
		}
		servers[i] = &serverState{hw: srv}
	}
	var sched *fault.Schedule
	if p.Faults != nil {
		var err error
		sched, err = fault.NewSchedule(*p.Faults, nServers, p.FaultStream)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	// Replay in arrival order.
	order := make([]int, tr.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tr.Requests[order[a]].Arrival < tr.Requests[order[b]].Arrival
	})
	// Servers share no hardware state, so each server's requests replay in
	// arrival order on a lane of their own. An armed fault schedule is
	// shared: a rack's failure process is extended lazily, under its lock,
	// by every server in the rack. Faulted replay keeps the whole trace on
	// one lane.
	lanes := [][]int{order}
	if sched == nil {
		lanes = byServer(tr, order, nServers)
	}
	rank := make([]int, len(order)) // a request's position in arrival order
	for pos, idx := range order {
		rank[idx] = pos
	}
	out := &trace.Trace{Requests: make([]trace.Request, tr.Len())}
	failAt := make([]int, len(lanes))
	errs := make([]error, len(lanes))
	par.Do(len(lanes), 0, func(l int) error {
		failAt[l] = len(order)
		// The lane's output spans are carved from one array.
		var n int
		for _, idx := range lanes[l] {
			n += len(tr.Requests[idx].Spans)
		}
		spans := make([]trace.Span, n)
		for _, idx := range lanes[l] {
			in := tr.Requests[idx]
			req, err := replayRequest(in, spans[:0:len(in.Spans)], servers, sched)
			if err != nil {
				failAt[l], errs[l] = rank[idx], err
				return nil
			}
			spans = spans[len(in.Spans):]
			out.Requests[idx] = req
		}
		return nil
	})
	// The error is the one of the earliest request to fail in arrival order,
	// and the recorder sees exactly the requests before it: what a serial
	// replay would have done.
	first := len(order)
	var err error
	for l := range lanes {
		if failAt[l] < first {
			first, err = failAt[l], errs[l]
		}
	}
	if p.Recorder != nil {
		for _, idx := range order[:first] {
			p.Recorder.Record(dapper.FromRequest(out.Requests[idx]))
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// byServer splits the arrival order into one lane per server, each in
// arrival order, carved from one array.
func byServer(tr *trace.Trace, order []int, servers int) [][]int {
	counts := make([]int, servers)
	for _, idx := range order {
		counts[tr.Requests[idx].Server]++
	}
	backing := make([]int, len(order))
	lanes := make([][]int, servers)
	for s, n := range counts {
		lanes[s] = backing[:0:n]
		backing = backing[n:]
	}
	for _, idx := range order {
		s := tr.Requests[idx].Server
		lanes[s] = append(lanes[s], idx)
	}
	return lanes
}

// maxReplayAttempts bounds one request's requeue loop; past it the replay
// proceeds on the current slot regardless — a termination backstop.
const maxReplayAttempts = 256

// replayRequest executes one request's spans in order on its server,
// writing them into spans (empty, with room for every span of r). With
// a fault schedule armed, a slot that is down at issue time — or dies
// before the request's spans complete — costs the attempt: the in-flight
// work is rolled back and requeued to re-execute once the server has
// recovered and the client's timeout-plus-backoff has elapsed.
func replayRequest(r trace.Request, spans []trace.Span, servers []*serverState, sched *fault.Schedule) (trace.Request, error) {
	srv := servers[r.Server]
	out := trace.Request{
		ID: r.ID, Class: r.Class, Server: r.Server, Arrival: r.Arrival,
		Retries: r.Retries, FailedOver: r.FailedOver, Spans: spans,
	}
	// The memory row is derived from the request's storage target (buffer
	// and checksum pages are tied to the accessed blocks), matching the
	// trace generator's convention.
	var storageLBN int64
	for _, s := range r.Spans {
		if s.Subsystem == trace.Storage {
			storageLBN = s.LBN
			break
		}
	}
	var fcfg fault.Config
	if sched != nil {
		fcfg = sched.Config()
	}
	issue := r.Arrival
	attempt := 0
	for {
		if sched != nil && sched.DownAt(r.Server, issue) {
			// Slot down at issue: requeue behind the repair.
			issue = requeueAt(sched, r.Server, issue, fcfg, attempt)
			attempt++
			out.Retries++
			if attempt >= maxReplayAttempts {
				sched = nil
			}
			continue
		}
		saved := srv.freeAt
		now := issue
		var cpuBusy float64
		out.Spans = out.Spans[:0]
		for _, s := range r.Spans {
			var dur float64
			switch s.Subsystem {
			case trace.Network:
				dur = srv.hw.Net.TransferTime(s.Bytes)
			case trace.CPU:
				dur = srv.hw.CPU.Time(s.Bytes)
				cpuBusy += dur
			case trace.Memory:
				row := (storageLBN * 4096) / srv.hw.Mem.RowBytes
				dur = srv.hw.Mem.Access(s.Bank, row, s.Bytes)
			case trace.Storage:
				dur = srv.hw.Disk.Access(s.LBN, s.Bytes)
			default:
				return trace.Request{}, fmt.Errorf("replay: request %d has invalid subsystem %d", r.ID, s.Subsystem)
			}
			start := now
			if f := srv.freeAt[s.Subsystem]; f > start {
				start = f
			}
			ns := s
			ns.Start = start
			ns.Duration = dur
			srv.freeAt[s.Subsystem] = start + dur
			now = start + dur
			out.Spans = append(out.Spans, ns)
		}
		// Mid-replay failure: the slot dying before the request's spans
		// complete loses the attempt; the rolled-back work requeues.
		if sched != nil {
			if fail := sched.NextFailure(r.Server, issue); fail < now {
				srv.freeAt = saved
				issue = requeueAt(sched, r.Server, fail, fcfg, attempt)
				attempt++
				out.Retries++
				if attempt >= maxReplayAttempts {
					sched = nil
				}
				continue
			}
		}
		// Recompute the achieved per-request CPU utilization. Requeue
		// delays count toward residence, mirroring the GFS simulator.
		latency := now - r.Arrival
		util := 0.0
		if latency > 0 {
			util = cpuBusy / latency
		}
		if util > 1 {
			util = 1
		}
		for i := range out.Spans {
			if out.Spans[i].Subsystem == trace.CPU {
				out.Spans[i].Util = util
			}
		}
		return out, nil
	}
}

// requeueAt returns the instant a failed attempt re-issues: the server's
// recovery or the client's timeout-plus-exponential-backoff, whichever is
// later. The backoff exponent is capped to keep pathological schedules
// finite.
func requeueAt(sched *fault.Schedule, server int, failedAt float64, fcfg fault.Config, attempt int) float64 {
	if attempt > 16 {
		attempt = 16
	}
	wait := failedAt + fcfg.Timeout + fcfg.Backoff*float64(int64(1)<<uint(attempt))
	if up := sched.NextUp(server, wait); up > wait {
		return up
	}
	return wait
}
