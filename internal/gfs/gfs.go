// Package gfs simulates a GFS-like distributed file system: a master
// holding the chunk namespace and placement, and chunkservers built on the
// parametric hardware models of internal/hw. It stands in for the
// proprietary traces the paper trains on: every executed request follows
// exactly the structure of the paper's Figure 1 —
//
//	network in -> CPU (verify) -> memory (metadata/buffer) ->
//	storage I/O -> CPU (aggregate) -> network out
//
// — and is emitted as a trace.Request whose spans carry the features the
// four per-subsystem models train on.
package gfs

import (
	"fmt"
	"math"
	"math/rand"

	"dcmodel/internal/dapper"
	"dcmodel/internal/fault"
	"dcmodel/internal/hw"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

// DefaultChunkSize is the GFS chunk size (64 MiB).
const DefaultChunkSize = 64 << 20

// Config describes the simulated cluster.
type Config struct {
	// Chunkservers is the number of chunkservers (>= 1).
	Chunkservers int
	// ChunkSize is the chunk size in bytes (default 64 MiB).
	ChunkSize int64
	// Files is the number of files in the namespace.
	Files int
	// FileSize is the per-file size in bytes.
	FileSize int64
	// Replication is the number of replicas per chunk (writes touch all
	// replicas; reads go to the primary). Default 1; capped at the number
	// of chunkservers.
	Replication int
	// PopularitySkew is the Zipf skew of file popularity (0 = uniform).
	PopularitySkew float64
	// SegmentBytes, when positive, quantizes request offsets to a grid of
	// segments of this size, drawn by a Zipf popularity of skew
	// SegmentSkew — hot/cold data within files (block-level reuse). Zero
	// keeps offsets uniformly random.
	SegmentBytes int64
	// SegmentSkew is the Zipf skew of segment popularity (used when
	// SegmentBytes > 0; 0.8 if unset).
	SegmentSkew float64
	// CacheHitProb is the probability a read is served from the
	// chunkserver's page cache: the request skips the storage phase and
	// the memory phase carries the full payload — branching control flow
	// (two time-dependency queues per read class).
	CacheHitProb float64
	// NewServer builds the hardware model of one chunkserver. Defaults to
	// DefaultServerHW.
	NewServer func() *hw.Server
}

// DefaultServerHW returns the chunkserver hardware the validation
// experiments use: 10 GbE network, a 200 MB/s disk, a 2.4 GHz core with
// GFS-like per-byte processing cost, and DDR3-class memory. The constants
// are chosen so that the paper's two validation requests (64 KB read, 4 MB
// write) land in the paper's latency and CPU-utilization ballpark
// (~11 ms / ~2 % and ~17 ms / ~5 %).
func DefaultServerHW() *hw.Server {
	s := hw.DefaultServer()
	s.Net.Bandwidth = 1.25e9 // 10 GbE
	s.Net.Latency = 100e-6
	s.Disk.TransferRate = 400e6
	s.CPU.Frequency = 2.4e9
	s.CPU.BaseCycles = 200e3
	s.CPU.CyclesPerByte = 0.4
	return s
}

// DefaultConfig returns a small single-server cluster matching the paper's
// preliminary single-chunkserver experiments.
func DefaultConfig() Config {
	return Config{
		Chunkservers:   1,
		ChunkSize:      DefaultChunkSize,
		Files:          64,
		FileSize:       256 << 20,
		Replication:    1,
		PopularitySkew: 0.8,
	}
}

// chunk is one placed chunk: its primary/replica servers and the LBN
// extent it occupies on each.
type chunk struct {
	servers []int   // replica servers; servers[0] is the primary
	lbn     []int64 // starting LBN of the chunk's extent per replica
}

// Master is the GFS master: the file -> chunk -> (server, extent) mapping.
type Master struct {
	chunkSize int64
	files     [][]int // file -> chunk ids
	chunks    []chunk
}

// Replicas returns the replica servers of the chunk containing (file,
// offset), including the primary first.
func (m *Master) Replicas(file int, offset int64) ([]int, []int64, error) {
	if file < 0 || file >= len(m.files) {
		return nil, nil, fmt.Errorf("gfs: file %d out of range", file)
	}
	ci := offset / m.chunkSize
	if ci < 0 || int(ci) >= len(m.files[file]) {
		return nil, nil, fmt.Errorf("gfs: offset %d beyond file %d", offset, file)
	}
	ch := m.chunks[m.files[file][ci]]
	blockOff := (offset % m.chunkSize) / 4096
	lbns := make([]int64, len(ch.lbn))
	for i, l := range ch.lbn {
		lbns[i] = l + blockOff
	}
	return ch.servers, lbns, nil
}

// Cluster is a simulated GFS deployment.
type Cluster struct {
	cfg     Config
	master  *Master
	servers []*chunkserver
	pop     popularity
	segPop  popularity // nil when SegmentBytes == 0
}

type popularity interface {
	Rand(r *rand.Rand) float64
}

type uniformPop struct{ n int }

func (u uniformPop) Rand(r *rand.Rand) float64 { return float64(1 + r.Intn(u.n)) }

// chunkserver is one server's hardware and subsystem queues plus the next
// free LBN for chunk placement.
type chunkserver struct {
	hw.Host
	nextAlloc int64
}

// NewCluster validates cfg, places all chunks and returns the cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Chunkservers < 1 {
		return nil, fmt.Errorf("gfs: need >= 1 chunkserver, got %d", cfg.Chunkservers)
	}
	if cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("gfs: chunk size must be positive, got %d", cfg.ChunkSize)
	}
	if cfg.Files < 1 {
		return nil, fmt.Errorf("gfs: need >= 1 file, got %d", cfg.Files)
	}
	if cfg.FileSize < cfg.ChunkSize {
		return nil, fmt.Errorf("gfs: file size %d below chunk size %d", cfg.FileSize, cfg.ChunkSize)
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > cfg.Chunkservers {
		cfg.Replication = cfg.Chunkservers
	}
	if cfg.PopularitySkew < 0 {
		return nil, fmt.Errorf("gfs: popularity skew must be non-negative, got %g", cfg.PopularitySkew)
	}
	newServer := cfg.NewServer
	if newServer == nil {
		newServer = DefaultServerHW
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Chunkservers; i++ {
		srv := newServer()
		if err := srv.Validate(); err != nil {
			return nil, fmt.Errorf("gfs: server %d: %w", i, err)
		}
		c.servers = append(c.servers, &chunkserver{Host: hw.Host{Server: srv}})
	}
	// Place chunks round-robin with contiguous per-server extents.
	m := &Master{chunkSize: cfg.ChunkSize}
	chunksPerFile := int((cfg.FileSize + cfg.ChunkSize - 1) / cfg.ChunkSize)
	blocksPerChunk := cfg.ChunkSize / 4096
	next := 0
	for f := 0; f < cfg.Files; f++ {
		var ids []int
		for k := 0; k < chunksPerFile; k++ {
			ch := chunk{}
			for rep := 0; rep < cfg.Replication; rep++ {
				s := (next + rep) % cfg.Chunkservers
				srv := c.servers[s]
				if srv.nextAlloc+blocksPerChunk > srv.Disk.NumBlocks {
					return nil, fmt.Errorf("gfs: server %d disk full after %d chunks", s, len(m.chunks))
				}
				ch.servers = append(ch.servers, s)
				ch.lbn = append(ch.lbn, srv.nextAlloc)
				srv.nextAlloc += blocksPerChunk
			}
			next++
			ids = append(ids, len(m.chunks))
			m.chunks = append(m.chunks, ch)
		}
		m.files = append(m.files, ids)
	}
	c.master = m
	if cfg.PopularitySkew > 0 && cfg.Files > 1 {
		c.pop = newZipfPop(cfg.PopularitySkew, cfg.Files)
	} else {
		c.pop = uniformPop{n: cfg.Files}
	}
	if cfg.SegmentBytes < 0 {
		return nil, fmt.Errorf("gfs: segment size must be non-negative, got %d", cfg.SegmentBytes)
	}
	if cfg.CacheHitProb < 0 || cfg.CacheHitProb > 1 {
		return nil, fmt.Errorf("gfs: cache hit probability %g outside [0,1]", cfg.CacheHitProb)
	}
	if cfg.SegmentBytes > 0 {
		nsegs := int(cfg.FileSize / cfg.SegmentBytes)
		if nsegs < 1 {
			nsegs = 1
		}
		skew := cfg.SegmentSkew
		if skew <= 0 {
			skew = 0.8
		}
		c.segPop = newZipfPop(skew, nsegs)
	}
	return c, nil
}

// RunConfig drives a simulation run.
type RunConfig struct {
	// Mix is the request-class mix.
	Mix *workload.Mix
	// Arrivals generates request arrival times.
	Arrivals workload.Arrivals
	// Requests is the number of requests to execute.
	Requests int
	// Faults, when non-nil, arms the fault-injection engine: chunkservers
	// fail and recover on Markov-modulated timelines, clients time out,
	// retry with exponential backoff and fail over to surviving replicas,
	// and the master re-replicates chunks lost to down replicas. Nil keeps
	// the healthy-cluster behavior bit for bit.
	Faults *fault.Config
	// FaultStream selects the failure-history sub-stream when Faults is
	// armed. The sharded drivers set it to the shard index so every shard
	// sees an independent failure history regardless of worker count;
	// plain Run callers normally leave it zero.
	FaultStream uint64
	// Recorder, when non-nil, receives one dapper span tree per executed
	// request, in execution order — the shared tracing seam (see
	// dapper.Recorder). Recording reads finished requests only and draws
	// nothing from the workload rand stream, so arming it perturbs no
	// simulation draws.
	Recorder dapper.Recorder
}

// classState tracks per-(class, server) sequential-I/O state.
type classState struct {
	lastLBN int64
	lastEnd int64
	valid   bool
}

// Run executes the workload and returns the resulting trace, sorted by
// arrival. The cluster's hardware state persists across calls; use Reset
// to rewind it.
func (c *Cluster) Run(rc RunConfig, r *rand.Rand) (*trace.Trace, error) {
	if rc.Mix == nil {
		return nil, fmt.Errorf("gfs: run needs a request mix")
	}
	if rc.Arrivals == nil {
		return nil, fmt.Errorf("gfs: run needs an arrival process")
	}
	if rc.Requests < 1 {
		return nil, fmt.Errorf("gfs: run needs >= 1 request, got %d", rc.Requests)
	}
	sched, err := c.schedule(rc.Faults, rc.FaultStream)
	if err != nil {
		return nil, err
	}
	arrivals := rc.Arrivals.Times(rc.Requests, r)
	tr := &trace.Trace{Requests: make([]trace.Request, 0, rc.Requests)}
	states := make(map[[2]int]*classState)
	for i := 0; i < rc.Requests; i++ {
		classIdx := rc.Mix.Pick(r)
		class := rc.Mix.Classes[classIdx]
		req, err := c.execute(int64(i), arrivals[i], classIdx, class, states, r, sched)
		if err != nil {
			return nil, err
		}
		tr.Requests = append(tr.Requests, req)
		if rc.Recorder != nil {
			rc.Recorder.Record(dapper.FromRequest(req))
		}
	}
	return tr, nil
}

// schedule materializes the failure history for a run, or nil when faults
// are disabled. The schedule depends only on (cfg, stream) — never on the
// workload rand stream — so arming faults perturbs no workload draws.
func (c *Cluster) schedule(cfg *fault.Config, stream uint64) (*fault.Schedule, error) {
	if cfg == nil {
		return nil, nil
	}
	sched, err := fault.NewSchedule(*cfg, len(c.servers), stream)
	if err != nil {
		return nil, fmt.Errorf("gfs: %w", err)
	}
	return sched, nil
}

// execute runs one request through a chunkserver following the Figure 1
// phase structure: it builds the spans' features and times them on
// hw.Host.Exec, the executor replay runs too. With a fault schedule armed,
// the client times out on a down replica, backs off exponentially and
// fails over to the next replica of the chunk; a replica that dies before
// the data phases complete costs the attempt. The healthy path
// (sched == nil) is bit-identical to the fault-free simulator: fault
// handling draws nothing from r.
func (c *Cluster) execute(id int64, arrival float64, classIdx int, class workload.ClassSpec, states map[[2]int]*classState, r *rand.Rand, sched *fault.Schedule) (trace.Request, error) {
	size := int64(class.Size.Rand(r))
	if size < 1 {
		size = 1
	}
	// Choose the target file and offset.
	file := int(c.pop.Rand(r)) - 1
	if file < 0 {
		file = 0
	}
	if file >= c.cfg.Files {
		file = c.cfg.Files - 1
	}
	maxOff := c.cfg.FileSize - size
	if maxOff < 0 {
		maxOff = 0
	}
	var offset int64
	if c.segPop != nil {
		// Hot/cold segments: draw a popular segment, then align to it.
		seg := int64(c.segPop.Rand(r)) - 1
		offset = seg * c.cfg.SegmentBytes
		if offset > maxOff {
			offset = maxOff
		}
	} else {
		offset = int64(r.Float64() * float64(maxOff))
	}
	servers, lbns, err := c.master.Replicas(file, offset)
	if err != nil {
		return trace.Request{}, err
	}
	// Spatial locality: continue sequentially from this class's previous
	// I/O on this server with probability SequentialProb. The decision is
	// drawn once per request against the primary's state, so the draw
	// sequence matches the fault-free simulator exactly; on failover it is
	// applied to the serving replica's own state.
	seqWanted := false
	if st := states[[2]int{classIdx, servers[0]}]; st != nil && st.valid {
		seqWanted = r.Float64() < class.SequentialProb
	}
	// Page-cache hit: reads served from memory skip the storage phase.
	hit := false
	if class.Op == trace.OpRead && c.cfg.CacheHitProb > 0 {
		hit = r.Float64() < c.cfg.CacheHitProb
	}

	req := trace.Request{ID: id, Class: class.Name, Server: servers[0], Arrival: arrival}
	var fcfg fault.Config
	if sched != nil {
		fcfg = sched.Config()
	}
	now := arrival
	rep, attempt := 0, 0
	for {
		tgt := servers[rep]
		if sched != nil && sched.DownAt(tgt, now) {
			// Replica refused the connection: time out, back off, fail
			// over to the next replica of the chunk.
			now += fcfg.Timeout + fcfg.RetryBackoff(attempt)
			attempt++
			req.Retries++
			rep = (rep + 1) % len(servers)
			if attempt%len(servers) == 0 {
				// Every replica was down at its attempt instant: jump to
				// the earliest recovery instead of spinning on backoff.
				up := math.Inf(1)
				for _, s := range servers {
					if u := sched.NextUp(s, now); u < up {
						up = u
					}
				}
				now = max(now, up)
			}
			if attempt >= fault.MaxAttempts {
				sched = nil
			}
			continue
		}

		srv := c.servers[tgt]
		key := [2]int{classIdx, tgt}
		st := states[key]
		if st == nil {
			st = &classState{}
			states[key] = st
		}
		lbn := lbns[rep]
		if seqWanted && st.valid {
			lbn = st.lastEnd
			if lbn >= srv.Disk.NumBlocks {
				lbn = lbns[rep]
			}
		}
		blocks := (size + 4095) / 4096
		st.lastLBN = lbn
		st.lastEnd = lbn + blocks
		st.valid = true

		// Snapshot for mid-attempt failure rollback: a lost attempt's spans
		// are discarded and the (down) server's queues rewound, so the work
		// dissipates with the crash.
		saved := srv.FreeAt
		spanBase := len(req.Spans)

		// Phases 1-4: network in (writes carry the payload in, reads a
		// small header); CPU verify at header scale; memory
		// metadata/buffer access scaling with the request (buffer
		// descriptors, checksum pages), capped at 256 KiB; storage I/O on
		// the serving replica. A cache hit serves the whole payload from
		// memory and skips the storage phase; its memory row is then row 0,
		// the convention for a request without storage.
		inBytes := int64(256)
		if class.Op == trace.OpWrite {
			inBytes = size
		}
		memBytes := min(max(size/4, 4096), 256<<10)
		storageLBN := lbn
		if hit {
			memBytes, storageLBN = size, 0
		}
		req.Spans = append(req.Spans,
			trace.Span{Subsystem: trace.Network, Bytes: inBytes},
			trace.Span{Subsystem: trace.CPU, Bytes: 256},
			trace.Span{Subsystem: trace.Memory, Op: class.Op, Bytes: memBytes, Bank: int(lbn) % srv.Mem.Banks})
		if !hit {
			req.Spans = append(req.Spans, trace.Span{Subsystem: trace.Storage, Op: class.Op, Bytes: size, LBN: lbn})
		}
		end, cpuBusy := srv.Exec(req.Spans[spanBase:], now, storageLBN)

		// Mid-attempt failure: the replica dying before the data phases
		// complete loses the attempt. Once the payload is durably stored,
		// the request is considered served — a crash during the final
		// aggregate/ack phases does not cost a retry.
		if sched != nil {
			if fail := sched.NextFailure(tgt, now); fail < end {
				req.Spans = req.Spans[:spanBase]
				srv.FreeAt = saved
				now = fail + fcfg.Timeout + fcfg.RetryBackoff(attempt)
				attempt++
				req.Retries++
				rep = (rep + 1) % len(servers)
				if attempt >= fault.MaxAttempts {
					sched = nil
				}
				continue
			}
		}
		now = end

		// Writes propagate to replicas: their networks and disks are kept
		// busy, delaying later requests there, but the client is
		// acknowledged after the slowest replica write (series pipeline).
		// The replica writes record no spans. Down replicas are skipped;
		// the master re-replicates their chunk from the serving copy
		// afterwards.
		var rereplBytes int64
		if class.Op == trace.OpWrite {
			for k := 1; k < len(servers); k++ {
				ri := (rep + k) % len(servers)
				if sched != nil && sched.DownAt(servers[ri], now) {
					rereplBytes += fcfg.RereplBytes
					continue
				}
				write := [2]trace.Span{
					{Subsystem: trace.Network, Bytes: size},
					{Subsystem: trace.Storage, Op: trace.OpWrite, Bytes: size, LBN: lbns[ri]},
				}
				if end, _ := c.servers[servers[ri]].Exec(write[:], now, 0); end > now {
					now = end
				}
			}
		}

		// Phases 5-6: CPU aggregate (checksum + copy of the payload), then
		// network out — reads return the payload, writes an ack.
		outBytes := int64(256)
		if class.Op == trace.OpRead {
			outBytes = size
		}
		tail := len(req.Spans)
		req.Spans = append(req.Spans,
			trace.Span{Subsystem: trace.CPU, Bytes: size},
			trace.Span{Subsystem: trace.Network, Bytes: outBytes})
		var cpu float64
		now, cpu = srv.Exec(req.Spans[tail:], now, storageLBN)
		cpuBusy += cpu

		req.Server = tgt
		req.FailedOver = rep != 0
		if req.FailedOver {
			// A read or write served off-primary means the primary's copy
			// is suspect: the master re-replicates the chunk too.
			rereplBytes += fcfg.RereplBytes
		}
		if sched != nil && rereplBytes > 0 {
			// Master-triggered re-replication: background chunk read and
			// transfer queued on the serving replica behind this request.
			// It emits no spans (it is master traffic, not client work) but
			// delays later requests there — the degraded-mode load the
			// healthy simulator never shows.
			srv.FreeAt[trace.Network] += srv.Net.TransferTime(rereplBytes)
			srv.FreeAt[trace.Storage] += srv.Disk.Access(lbn, rereplBytes)
		}
		hw.SetUtil(req.Spans, cpuBusy, now-arrival)
		return req, nil
	}
}

// ClosedRunConfig drives a closed-loop (interactive) simulation: a fixed
// population of users each issue a request, wait for its completion, think
// for an exponential time, and repeat — the workload shape of the
// closed-queueing-network analyses (MVA) in the in-depth literature.
type ClosedRunConfig struct {
	// Mix is the request-class mix.
	Mix *workload.Mix
	// Users is the closed population size (>= 1).
	Users int
	// MeanThink is the mean exponential think time between a user's
	// completion and next request (0 = no think time).
	MeanThink float64
	// Requests is the total number of requests to complete.
	Requests int
	// Faults, when non-nil, arms the fault-injection engine (see
	// RunConfig.Faults).
	Faults *fault.Config
	// FaultStream selects the failure-history sub-stream (see
	// RunConfig.FaultStream).
	FaultStream uint64
	// Recorder receives one dapper span tree per completed request (see
	// RunConfig.Recorder).
	Recorder dapper.Recorder
}

// RunClosed executes the closed-loop workload and returns the trace. The
// trace's Arrival fields are the instants users issued their requests.
func (c *Cluster) RunClosed(rc ClosedRunConfig, r *rand.Rand) (*trace.Trace, error) {
	if rc.Mix == nil {
		return nil, fmt.Errorf("gfs: closed run needs a request mix")
	}
	if rc.Users < 1 {
		return nil, fmt.Errorf("gfs: closed run needs >= 1 user, got %d", rc.Users)
	}
	if rc.MeanThink < 0 {
		return nil, fmt.Errorf("gfs: negative think time %g", rc.MeanThink)
	}
	if rc.Requests < 1 {
		return nil, fmt.Errorf("gfs: closed run needs >= 1 request, got %d", rc.Requests)
	}
	sched, err := c.schedule(rc.Faults, rc.FaultStream)
	if err != nil {
		return nil, err
	}
	think := func() float64 {
		if rc.MeanThink == 0 {
			return 0
		}
		return r.ExpFloat64() * rc.MeanThink
	}
	// Users ready to issue, as a typed min-heap over (ready time, user
	// index): O(log U) per request instead of a linear scan, with the same
	// lowest-index-wins tie-break the scan had.
	ready := make(userHeap, rc.Users)
	for i := range ready {
		ready[i] = userReady{at: think(), user: i}
	}
	ready.init()
	tr := &trace.Trace{Requests: make([]trace.Request, 0, rc.Requests)}
	states := make(map[[2]int]*classState)
	for i := 0; i < rc.Requests; i++ {
		// Pop the earliest-ready user.
		next := ready[0]
		issue := next.at
		classIdx := rc.Mix.Pick(r)
		class := rc.Mix.Classes[classIdx]
		req, err := c.execute(int64(i), issue, classIdx, class, states, r, sched)
		if err != nil {
			return nil, err
		}
		tr.Requests = append(tr.Requests, req)
		if rc.Recorder != nil {
			rc.Recorder.Record(dapper.FromRequest(req))
		}
		ready.replaceMin(userReady{at: issue + req.Latency() + think(), user: next.user})
	}
	return tr, nil
}

// userReady is one closed-loop user's next issue instant.
type userReady struct {
	at   float64
	user int
}

// userHeap is a typed binary min-heap of users keyed by (ready time, user
// index) — a total order, so the pop sequence exactly matches the linear
// earliest-ready scan (lowest index wins ties) it replaces.
type userHeap []userReady

func (h userHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].user < h[j].user
}

func (h userHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// replaceMin swaps the root for e and restores heap order: the closed loop
// always reinserts the user it just popped, so pop+push fuse into one
// sift-down with no slice traffic.
func (h userHeap) replaceMin(e userReady) {
	h[0] = e
	h.down(0)
}

func (h userHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// newZipfPop adapts stats.Zipf as a popularity source.
func newZipfPop(skew float64, n int) popularity {
	return zipfPop{z: newZipf(skew, n)}
}
