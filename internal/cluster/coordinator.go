package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"dcmodel/internal/errs"
	"dcmodel/internal/fault"
	"dcmodel/internal/obs"
	"dcmodel/internal/trace"
)

// routeBatchSize is the round an ingest body is routed in: the most requests,
// in whole trace-v2 blocks, one routeMu acquisition assigns to owners and
// sends as one POST per owner, so concurrent ingest bodies interleave at round
// granularity (the determinism contract makes the interleaving unobservable
// in the merged model). A block of more requests is a round of its own. It
// also bounds what the merge cadence, checked once a round, can be overrun
// by, and is the default MergeEvery for that reason.
const routeBatchSize = 4096

// block is the routing unit: one trace-v2 block as framed on the wire, its
// ring position (the Key of its first request) and its request count. A block
// goes whole to one owner, so its bytes are sent as the client sent them;
// cluster.Model.Observe is per request and order-free, so which owner counts
// which request leaves the merged model unchanged.
type block struct {
	frame []byte
	key   uint64
	n     int
}

// requests counts the requests of bs.
func requests(bs []block) (n int) {
	for _, b := range bs {
		n += b.n
	}
	return n
}

// appendStream appends bs to dst as one trace-v2 stream, each frame verbatim
// between the stream header and end marker, and points each block at its
// copy.
func appendStream(dst []byte, bs []block) []byte {
	size := len(trace.BinaryStreamHeader) + len(trace.BinaryStreamEnd)
	for _, b := range bs {
		size += len(b.frame)
	}
	dst = append(slices.Grow(dst, size), trace.BinaryStreamHeader...)
	for i := range bs {
		off := len(dst)
		dst = append(dst, bs[i].frame...)
		bs[i].frame = dst[off:len(dst):len(dst)]
	}
	return append(dst, trace.BinaryStreamEnd...)
}

// CoordinatorConfig configures the cluster coordinator (the master
// role).
type CoordinatorConfig struct {
	// Workers lists worker base URLs (e.g. http://10.0.0.7:9071). At
	// least one is required.
	Workers []string
	// VNodes is the virtual-node count per worker on the hash ring
	// (0 selects DefaultVNodes).
	VNodes int
	// MergeEvery triggers an automatic merge+replicate cycle after this
	// many routed requests (0 selects 4096; negative disables automatic
	// merges — /v1/merge and lazy query merges still work).
	MergeEvery int
	// Model is the shared quantization config, replicated to workers'
	// expectations.
	Model ModelConfig
	// Faults arms a kill schedule over the workers: a worker whose
	// schedule says "down" at delivery time is treated exactly like a
	// crashed process (re-routing, re-replication, reset on rejoin).
	Faults *fault.Config
	// FaultClock returns elapsed seconds on the fault timeline; nil
	// uses wall-clock time since construction. Tests inject a manual
	// clock to make kills deterministic.
	FaultClock func() float64
	// Cooldown is how long a transport-dead worker stays excluded
	// before the next delivery probes it again (half-open), in seconds.
	// 0 selects 1s.
	Cooldown float64
	// Client performs worker RPCs; nil selects a 30s-timeout client.
	Client *http.Client
	// MaxSynth caps one /v1/synthesize response.
	MaxSynth int
	// Obs arms live request tracing (sampled span trees on /v1/traces),
	// mirroring the single-node daemon.
	Obs *obs.Options
}

// withDefaults fills zero fields.
func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	c.Model = c.Model.withDefaults()
	if c.MergeEvery == 0 {
		c.MergeEvery = 4096
	}
	if c.Cooldown == 0 {
		c.Cooldown = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxSynth == 0 {
		c.MaxSynth = 100000
	}
	return c
}

// member is the coordinator's view of one worker. All fields are guarded
// by Coordinator.routeMu.
type member struct {
	url string
	// spanName names the child span of a delivery: route:worker-N.
	spanName string
	// up reports the transport view: false after a failed delivery
	// until a successful half-open probe.
	up bool
	// downUntil is the elapsed time before which no probe is attempted.
	downUntil float64
	// log holds the blocks delivered to this worker since its checkpoint,
	// each cut from the stream that was sent, with its key; logged counts
	// their requests. It is the re-replication source when the worker dies
	// (the GFS master's operation log): a block is appended before it is
	// sent and re-sent whole, by its key, when a death makes it an orphan.
	log    []block
	logged int
	// checkpoint is the worker's shard as the last completed merge pulled
	// it: every request delivered up to that merge, as counts. The merge
	// cut the log there, so checkpoint plus log is everything the worker
	// holds. Nil until the first merge after a (re)set.
	checkpoint *Model
	// generation is the merge generation last installed on the worker.
	generation int64
}

// share is one owner's part of a routing round. The shares are scratch of
// the coordinator, reused from round to round under routeMu.
type share struct {
	// blocks are what the round assigns to the owner: first the mine of
	// them that belong to the body being ingested, then orphans of dead
	// workers; n counts their requests.
	blocks  []block
	mine, n int
	// body is the stream that is sent: the blocks verbatim, which the log
	// keeps cut from it.
	body []byte
	span *obs.LiveSpan
	// err is the outcome of the delivery, written on the owner's goroutine
	// and read after the join.
	err error
}

// Coordinator fronts the cluster: it consistent-hash-routes the trace-v2
// blocks of ingested streams to worker shards, assembles the exactly-merged
// global model, replicates it to every worker, and routes each query to the
// ring owner of its key among the live workers holding its own generation —
// or serves it itself from the merged model when no worker does
// (breaker-style degradation).
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	sched  *fault.Schedule
	client *http.Client
	start  time.Time

	// routeMu serializes routing, membership changes and merges: the
	// exactly-once accounting (log append before delivery, redistribute
	// on death, reset on rejoin) needs one writer.
	routeMu     sync.Mutex
	members     []*member
	local       *Model // coordinator's own shard: requests absorbed while no worker was up
	global      *Model // last merged global model
	globalBytes []byte
	generation  int64
	sinceMerge  int

	// Scratch of one routing round, guarded by routeMu: a share per member
	// and a last one for the coordinator's own shard, and which members are
	// usable.
	shares   []share
	usableAt []bool
	excluded func(worker int) bool

	reg           *obs.Registry
	routed        *obs.LabeledCounter
	deaths        *obs.LabeledCounter
	queryRouted   *obs.LabeledCounter
	redistributed *obs.Counter
	degraded      *obs.Counter
	merges        *obs.Counter
	folds         *obs.Counter
	spanner       *obs.Spanner
	traces        *obs.TraceRing

	mux *http.ServeMux
}

// NewCoordinator builds a coordinator over cfg.Workers.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) < 1 {
		return nil, fmt.Errorf("cluster: coordinator needs >= 1 worker: %w", errs.ErrBadConfig)
	}
	ring, err := NewRing(len(cfg.Workers), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	local, err := NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   ring,
		client: cfg.Client,
		start:  time.Now(),
		local:  local,
	}
	if cfg.Faults != nil {
		fc := cfg.Faults.WithDefaults()
		if c.sched, err = fault.NewSchedule(fc, len(cfg.Workers), 0); err != nil {
			return nil, err
		}
	}
	for i, u := range cfg.Workers {
		c.members = append(c.members, &member{url: u, spanName: fmt.Sprintf("route:worker-%d", i), up: true})
	}
	c.shares = make([]share, len(c.members)+1)
	c.usableAt = make([]bool, len(c.members))
	c.excluded = func(worker int) bool { return !c.usableAt[worker] }

	c.reg = obs.NewRegistry()
	c.routed = c.reg.LabeledCounter("dcmodel_cluster_routed_total", "Requests routed to each worker shard.", "worker")
	c.deaths = c.reg.LabeledCounter("dcmodel_cluster_worker_deaths_total", "Times each worker was marked down.", "worker")
	c.queryRouted = c.reg.LabeledCounter("dcmodel_cluster_query_routed_total", "Queries routed to each worker.", "worker")
	c.redistributed = c.reg.Counter("dcmodel_cluster_redistributed_total", "Requests re-replicated from a dead worker's routing log.")
	c.degraded = c.reg.Counter("dcmodel_cluster_degraded_total", "Requests absorbed by the coordinator itself with no worker up.")
	c.merges = c.reg.Counter("dcmodel_cluster_merges_total", "Merge+replicate cycles completed.")
	c.folds = c.reg.Counter("dcmodel_cluster_checkpoint_folds_total", "Dead workers' checkpoints folded into the coordinator's own shard.")
	c.reg.OnScrape(func(set func(name string, v float64)) {
		c.routeMu.Lock()
		up, logged, logBytes := 0, 0, 0
		for _, m := range c.members {
			if m.up {
				up++
			}
			logged += m.logged
			for _, b := range m.log {
				logBytes += len(b.frame)
			}
		}
		gen := c.generation
		c.routeMu.Unlock()
		set("dcmodel_cluster_workers_up", float64(up))
		set("dcmodel_cluster_generation", float64(gen))
		set("dcmodel_cluster_log_requests", float64(logged))
		set("dcmodel_cluster_log_bytes", float64(logBytes))
	})
	if cfg.Obs != nil {
		o := cfg.Obs.WithDefaults()
		c.traces = obs.NewTraceRing(o.TraceCapacity)
		if c.spanner, err = obs.NewSpanner(o.SampleEvery, obs.Tee(c.traces, o.Recorder)); err != nil {
			return nil, err
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", only(http.MethodPost, c.handleIngest))
	mux.HandleFunc("/v1/merge", only(http.MethodPost, c.handleMerge))
	mux.HandleFunc("/v1/model", only(http.MethodGet, c.handleModel))
	mux.HandleFunc("/v1/synthesize", only(http.MethodGet, c.handleQuery("synthesize")))
	mux.HandleFunc("/v1/characterize", only(http.MethodGet, c.handleQuery("characterize")))
	mux.HandleFunc("/v1/stats", only(http.MethodGet, c.handleStats))
	mux.HandleFunc("/v1/traces", only(http.MethodGet, c.handleTraces))
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) { c.reg.WriteText(w) })
	c.mux = mux
	return c, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Generation returns the current merge generation.
func (c *Coordinator) Generation() int64 {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	return c.generation
}

// WorkersUp returns how many workers the coordinator considers routable.
func (c *Coordinator) WorkersUp() int {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	n := 0
	t := c.elapsed()
	for i, m := range c.members {
		if m.up && !c.faultDown(i, t) {
			n++
		}
	}
	return n
}

// elapsed returns the fault-timeline position in seconds.
func (c *Coordinator) elapsed() float64 {
	if c.cfg.FaultClock != nil {
		return c.cfg.FaultClock()
	}
	return time.Since(c.start).Seconds()
}

// faultDown reports whether the armed schedule holds worker i down at t.
func (c *Coordinator) faultDown(i int, t float64) bool {
	return c.sched != nil && c.sched.DownAt(i, t)
}

// usable reports whether worker i can receive deliveries at elapsed t,
// attempting a half-open revive of transport-dead workers whose cooldown
// has passed. Fault-scheduled deaths are only OBSERVED here; reapLocked
// performs the kill (and the log redistribution that must accompany it).
// Callers hold routeMu.
func (c *Coordinator) usable(i int, t float64) bool {
	m := c.members[i]
	if c.faultDown(i, t) {
		return false
	}
	if m.up {
		return true
	}
	if t < m.downUntil {
		return false
	}
	// Half-open probe: a rejoining worker is reset before it is routed
	// to again — its pre-death shard was already re-replicated to the
	// survivors, so reusing it would double-count.
	if _, err := c.rpc(http.MethodPost, m.url+"/v1/reset", "", 0, nil); err != nil {
		m.downUntil = t + c.cfg.Cooldown
		return false
	}
	m.up = true
	m.log, m.logged, m.checkpoint = nil, 0, nil
	m.generation = 0
	return true
}

// reapLocked executes the armed fault schedule: every up worker the
// schedule holds down at elapsed t is killed, and what it leaves to re-route
// is returned. Callers hold routeMu and must call this, and re-route, before
// trusting membership on a write path (routing or merging).
func (c *Coordinator) reapLocked(t float64) (orphans []block) {
	if c.sched == nil {
		return nil
	}
	for i, m := range c.members {
		if m.up && c.faultDown(i, t) {
			orphans = append(orphans, c.killLocked(i, c.sched.NextUp(i, t))...)
		}
	}
	return orphans
}

// killLocked marks worker i down until downUntil and takes everything it
// held out of it (a worker already down holds nothing). Its checkpoint, the
// requests delivered up to the last merge, is folded into the coordinator's
// own shard: a model is integer counts, so the fold is exact, and every later
// generation counts those requests there. Its log, the blocks delivered
// since, is returned for the caller to re-route. Callers hold routeMu.
func (c *Coordinator) killLocked(i int, downUntil float64) (orphans []block) {
	m := c.members[i]
	if !m.up {
		return nil
	}
	m.up, m.downUntil = false, downUntil
	c.deaths.Add(1, strconv.Itoa(i))
	if m.checkpoint != nil {
		// The checkpoint went through global.Merge when it was taken, so
		// its quantization is the coordinator's.
		if err := c.local.Merge(m.checkpoint); err != nil {
			panic(fmt.Sprintf("cluster: checkpoint of worker %d does not fold: %v", i, err))
		}
		m.checkpoint = nil
		c.folds.Inc()
	}
	orphans = m.log
	c.redistributed.Add(int64(m.logged))
	m.log, m.logged = nil, 0
	return orphans
}

// absorbLocked trains the coordinator's own shard on blocks no worker can
// take (breaker-style degradation), the one place a routed block is decoded
// again. Callers hold routeMu.
func (c *Coordinator) absorbLocked(bs []block) {
	tr, err := trace.ReadBinary(bytes.NewReader(appendStream(nil, bs)))
	if err != nil { // blocks the coordinator decoded when they came in
		panic(fmt.Sprintf("cluster: a routed block does not decode: %v", err))
	}
	for i := range tr.Requests {
		c.local.Observe(tr.Requests[i])
	}
	c.degraded.Add(int64(len(tr.Requests)))
}

// fanOut runs do(i) for every listed member side by side and returns once
// all have returned: the last on the calling goroutine, each other on one of
// its own.
func fanOut(members []int, do func(i int)) {
	if len(members) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, i := range members[:len(members)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i)
		}()
	}
	do(members[len(members)-1])
	wg.Wait()
}

// liveLocked lists the workers usable at elapsed t, in member order (a
// transport-dead one whose cooldown has passed is probed here), and leaves
// the same answer in c.usableAt for the ring walk. Callers hold routeMu.
func (c *Coordinator) liveLocked(t float64) (live []int) {
	for i := range c.members {
		if c.usableAt[i] = c.usable(i, t); c.usableAt[i] {
			live = append(live, i)
		}
	}
	return live
}

// routeBatch routes one round of an ingest body and runs the merge the
// cadence asks for. It returns how many of the round's requests a worker
// took and how many the coordinator absorbed itself.
func (c *Coordinator) routeBatch(blocks []block, span *obs.LiveSpan) (routed, absorbed int) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	routed, absorbed = c.routeLocked(blocks, nil, span)
	if c.cfg.MergeEvery > 0 && c.sinceMerge >= c.cfg.MergeEvery {
		// Best-effort: a failed merge leaves the previous generation
		// serving and the next cycle retries.
		_ = c.mergeLocked()
	}
	return routed, absorbed
}

// routeLocked is the one routing loop, for a round of an ingest body (mine)
// and for the orphans of dead workers (older) alike. A round reaps the fault
// schedule, assigns every pending block whole to the ring owner of its key
// among the usable workers, lays each owner's blocks verbatim into one
// stream, appends them to the owner's log BEFORE sending it, sends all
// streams side by side and joins. Then, in member order, an owner whose
// delivery failed (transport error or a non-200) is killed and everything it
// held goes into the next round; blocks with no usable owner train the
// coordinator's own shard. It returns how many requests of mine a worker
// took and how many were absorbed. Callers hold routeMu.
func (c *Coordinator) routeLocked(mine, older []block, span *obs.LiveSpan) (routed, absorbed int) {
	own := &c.shares[len(c.members)]
	defer func() {
		for i := range c.shares { // keep no block alive between calls
			sh := &c.shares[i]
			clear(sh.blocks)
			sh.blocks, sh.body, sh.span = sh.blocks[:0], nil, nil
		}
	}()
	for {
		t := c.elapsed()
		older = append(older, c.reapLocked(t)...)
		if len(mine)+len(older) == 0 {
			return routed, absorbed
		}
		live := c.liveLocked(t)
		for i := range c.shares {
			c.shares[i].blocks = c.shares[i].blocks[:0]
		}
		assign := func(bs []block) {
			for _, b := range bs {
				owner := c.ring.OwnerExcluding(b.key, c.excluded)
				if owner < 0 {
					owner = len(c.members)
				}
				c.shares[owner].blocks = append(c.shares[owner].blocks, b)
			}
		}
		assign(mine)
		for i := range c.shares {
			c.shares[i].mine = len(c.shares[i].blocks)
		}
		assign(older)
		if len(own.blocks) > 0 {
			absorbed += requests(own.blocks[:own.mine])
			c.absorbLocked(own.blocks)
		}

		// Log append precedes delivery: if the POST fails (or times out
		// ambiguously) the worker is marked down and the log, these blocks
		// included, is re-replicated, so an acknowledged-but-unrecorded
		// delivery cannot happen. The child spans open here, in member
		// order, so a sampled tree does not depend on which POST wins.
		owners := live[:0]
		for _, i := range live {
			m, sh := c.members[i], &c.shares[i]
			if len(sh.blocks) == 0 {
				continue
			}
			sh.body = appendStream(nil, sh.blocks)
			sh.n = requests(sh.blocks)
			m.log = append(m.log, sh.blocks...)
			m.logged += sh.n
			sh.span = span.Child(m.spanName)
			owners = append(owners, i)
		}
		// This POST is the one way requests reach a worker, for routing and
		// re-replication alike; it touches no coordinator state, so the
		// deliveries of a round run side by side.
		fanOut(owners, func(i int) {
			sh := &c.shares[i]
			_, sh.err = c.rpc(http.MethodPost, c.members[i].url+"/v1/ingest", trace.ContentTypeV2, 0, sh.body)
			sh.span.End()
		})

		mine, older = nil, nil
		for _, i := range owners {
			m, sh := c.members[i], &c.shares[i]
			if sh.err != nil {
				sh.span.Annotate("dead: %v", sh.err)
				// The blocks just logged are at hand, which tells mine from
				// the rest; the log before them is not.
				m.log, m.logged = m.log[:len(m.log)-len(sh.blocks)], m.logged-sh.n
				c.redistributed.Add(int64(sh.n))
				mine = append(mine, sh.blocks[:sh.mine]...)
				older = append(older, sh.blocks[sh.mine:]...)
				older = append(older, c.killLocked(i, c.elapsed()+c.cfg.Cooldown)...)
				continue
			}
			sh.span.Annotate("n=%d", sh.n)
			c.routed.Add(int64(sh.n), strconv.Itoa(i))
			c.sinceMerge += sh.n
			routed += requests(sh.blocks[:sh.mine])
		}
	}
}

// rpc is every worker RPC: it sends body, with gen in GenerationHeader when
// positive, and returns the answer, of at most maxModelBytes; any non-200 is
// an error.
func (c *Coordinator) rpc(method, url, contentType string, gen int64, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if gen > 0 {
		req.Header.Set(GenerationHeader, strconv.FormatInt(gen, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(io.LimitReader(resp.Body, maxModelBytes+1))
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%s returned %d", url, resp.StatusCode)
	case len(answer) > maxModelBytes:
		return nil, fmt.Errorf("%s answered more than %d bytes", url, maxModelBytes)
	}
	return answer, nil
}

// mergeLocked assembles the global model from the coordinator's own
// shard plus every usable worker's shard, bumps the generation, and
// replicates the merged model to the workers; the shards are pulled side by
// side, and so are the replicas pushed. A worker dying mid-merge restarts the
// assembly after what it held is re-routed, so every generation counts every
// request exactly once.
//
// A completed merge is a checkpoint: no delivery is in flight under routeMu,
// so a pulled shard is everything delivered to that worker so far. It is kept
// as the member's checkpoint and the member's log is cut. Callers hold
// routeMu.
func (c *Coordinator) mergeLocked() error {
	var orphans []block
	for {
		// Reap, and re-route what the dead leave, before trusting
		// membership: the workers live at t are those not reaped at t.
		t := c.elapsed()
		if orphans = append(orphans, c.reapLocked(t)...); len(orphans) > 0 {
			c.routeLocked(nil, orphans, nil)
			orphans = nil
			continue
		}
		live := c.liveLocked(t)
		shards := make([]*Model, len(c.members))
		errs := make([]error, len(c.members))
		fanOut(live, func(i int) {
			var blob []byte
			if blob, errs[i] = c.rpc(http.MethodGet, c.members[i].url+"/v1/model", "", 0, nil); errs[i] == nil {
				shards[i], errs[i] = UnmarshalModel(blob)
			}
		})
		died := false
		for _, i := range live {
			if errs[i] != nil {
				orphans = append(orphans, c.killLocked(i, c.elapsed()+c.cfg.Cooldown)...)
				died = true
			}
		}
		if died {
			continue
		}
		global, err := NewModel(c.cfg.Model)
		if err != nil {
			return err
		}
		if err := global.Merge(c.local); err != nil {
			return err
		}
		for _, i := range live {
			if err := global.Merge(shards[i]); err != nil {
				return err
			}
		}
		blob, err := global.MarshalBinary()
		if err != nil {
			return err
		}
		c.generation++
		c.global, c.globalBytes = global, blob
		c.sinceMerge = 0
		c.merges.Inc()
		for _, i := range live {
			m := c.members[i]
			m.checkpoint, m.log, m.logged = shards[i], nil, 0
		}
		fanOut(live, func(i int) {
			_, errs[i] = c.rpc(http.MethodPost, c.members[i].url+"/v1/model", ContentTypeModel, c.generation, blob)
		})
		for _, i := range live {
			if errs[i] != nil {
				// Its shard is already inside this generation, and is now
				// its checkpoint: folded into the coordinator's own shard,
				// it is inside the next one too, once.
				orphans = append(orphans, c.killLocked(i, c.elapsed()+c.cfg.Cooldown)...)
				continue
			}
			c.members[i].generation = c.generation
		}
		c.routeLocked(nil, orphans, nil)
		return nil
	}
}

// handleIngest routes a CSV or trace-v2 body across the worker shards, a
// round of up to routeBatchSize requests at a time. The answer counts this
// body's requests: routed to a worker, or absorbed by the coordinator itself
// with no worker up. A body that stops decoding, or holds a request that
// fails Request.Validate, is refused with 400 from there on: a trace-v2 body
// from the block that holds it, a CSV body from that request. What came
// before stays ingested.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	in := &intake{c: c, sc: ingestScratches.Get().(*ingestScratch), span: c.spanner.StartRequest("cluster:ingest", 0)}
	defer in.sc.release()
	body, contentType := io.LimitReader(r.Body, maxIngestBytes), r.Header.Get("Content-Type")
	var err error
	if trace.IsBinaryMediaType(contentType) {
		in.sc.v2.Reuse(body)
		err = in.blocks()
	} else {
		in.sc.csv.Reuse(body)
		err = in.csv()
	}
	if err != nil {
		in.span.Annotate("decode error: %v", err)
		in.span.Finish()
		httpError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	in.span.Annotate("requests=%d degraded=%d", in.total, in.absorbed)
	in.span.Finish()
	writeJSON(w, http.StatusOK, map[string]any{"ingested": in.total, "routed": in.routed, "absorbed_locally": in.absorbed})
}

// intake is one ingest body on its way through the coordinator: the scratch
// its rounds gather in, its span and its counts.
type intake struct {
	c                       *Coordinator
	sc                      *ingestScratch
	span                    *obs.LiveSpan
	total, routed, absorbed int
}

// blocks reads sc.v2 to its end a block at a time, Validates every request
// (a request the shard models cannot take, such as a NaN utilization, would
// take down every worker it reached and then the coordinator absorbing it)
// and routes the blocks verbatim, a round at a time. A block that does not
// decode or holds a refused request ends the read with its error, after the
// blocks before it are routed.
func (in *intake) blocks() error {
	sc, pending := in.sc, 0
	for {
		frame, reqs, err := sc.v2.NextBlock()
		for i := 0; err == nil && i < len(reqs); i++ {
			err = reqs[i].Validate()
		}
		if len(sc.blocks) > 0 && (err != nil || pending+len(reqs) > routeBatchSize) {
			routed, absorbed := in.c.routeBatch(sc.blocks, in.span)
			in.total, in.routed, in.absorbed = in.total+pending, in.routed+routed, in.absorbed+absorbed
			clear(sc.blocks)
			sc.blocks, sc.frames, pending = sc.blocks[:0], sc.frames[:0], 0
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		// A frame lives until the next read: the round keeps a copy. Earlier
		// blocks keep theirs where frames grew, which append never rewrites.
		sc.frames = append(sc.frames, frame...)
		sc.blocks = append(sc.blocks, block{frame: sc.frames[len(sc.frames)-len(frame):], key: Key(reqs[0].ID, reqs[0].Class), n: len(reqs)})
		pending += len(reqs)
	}
}

// csv reads sc.csv to its end a round of routeBatchSize requests at a time,
// Validates each request and routes each round through encode. A request
// that does not decode or is refused ends the read with its error, after the
// requests before it are routed.
func (in *intake) csv() error {
	sc := in.sc
	for {
		req, err := sc.csv.Next()
		if err == nil {
			err = req.Validate()
		}
		if err == nil {
			if sc.batch = append(sc.batch, req); len(sc.batch) < routeBatchSize {
				continue
			}
		}
		if len(sc.batch) > 0 {
			if err := in.encode(sc.batch); err != nil {
				return err
			}
			clear(sc.batch)
			sc.batch = sc.batch[:0]
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// encode lays requests into trace-v2 blocks once and routes those as a
// trace-v2 body's. A request the format cannot carry (Validate passes none)
// is an error before anything is logged or sent, and blames no worker.
func (in *intake) encode(reqs []trace.Request) (err error) {
	if in.sc.enc, err = trace.AppendBinary(in.sc.enc[:0], reqs); err != nil {
		return err
	}
	in.sc.v2.Reuse(bytes.NewReader(in.sc.enc))
	return in.blocks()
}

// handleMerge runs an explicit merge+replicate cycle.
func (c *Coordinator) handleMerge(w http.ResponseWriter, r *http.Request) {
	c.routeMu.Lock()
	err := c.mergeLocked()
	gen := c.generation
	var reqs int64
	if c.global != nil {
		reqs = c.global.Requests()
	}
	c.routeMu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "merge: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "requests": reqs})
}

// handleModel serves the merged global model bytes.
func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	c.routeMu.Lock()
	if c.global == nil {
		_ = c.mergeLocked()
	}
	blob, gen := c.globalBytes, c.generation
	c.routeMu.Unlock()
	if blob == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: no merged model yet", errs.ErrModelNotTrained)
		return
	}
	w.Header().Set("Content-Type", ContentTypeModel)
	w.Header().Set(GenerationHeader, strconv.FormatInt(gen, 10))
	w.Write(blob)
}

// pickWorker returns the worker that answers a query at ring position key:
// the key's ring owner among the workers live at elapsed t that hold the
// coordinator's own generation, or -1 when none does and the coordinator
// answers from its merged model. A rejoined worker holds generation 0 until
// the next merge replicates to it, so it answers no query before then, from
// its pre-death replica least of all; workers of one generation hold the
// same replica and answer byte for byte alike. Callers hold routeMu.
func (c *Coordinator) pickWorker(key uint64, t float64) int {
	c.liveLocked(t)
	return c.ring.OwnerExcluding(key, func(w int) bool { return c.excluded(w) || c.members[w].generation != c.generation })
}

// handleQuery routes /v1/synthesize and /v1/characterize to the worker
// pickWorker names, or answers locally from the merged model when no worker
// is up — the cluster's analogue of the single-node breaker staying on the
// last good model.
func (c *Coordinator) handleQuery(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, seed, format, err := synthParams(r, c.cfg.MaxSynth)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		c.routeMu.Lock()
		if c.generation == 0 {
			_ = c.mergeLocked()
		}
		pick := c.pickWorker(Key(seed, endpoint), c.elapsed())
		global, gen := c.global, c.generation
		c.routeMu.Unlock()

		if pick >= 0 {
			c.queryRouted.Add(1, strconv.Itoa(pick))
			if c.proxy(w, c.members[pick].url+r.URL.Path+"?"+r.URL.RawQuery) {
				return
			}
			// The pick is unreachable: it is marked down and what it held
			// is re-routed, as for a failed delivery, so no other query
			// dials it before its cooldown; this one is answered here.
			c.routeMu.Lock()
			c.routeLocked(nil, c.killLocked(pick, c.elapsed()+c.cfg.Cooldown), nil)
			c.routeMu.Unlock()
		}
		if global == nil || global.Requests() == 0 {
			httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
			return
		}
		c.degraded.Inc()
		answerQuery(w, endpoint, global, gen, n, seed, format)
	}
}

// proxy forwards a GET and streams the response; false means the
// upstream was unreachable and the caller should answer locally.
func (c *Coordinator) proxy(w http.ResponseWriter, url string) bool {
	resp, err := c.client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// WorkerView is one worker's row in the cluster stats.
type WorkerView struct {
	URL        string `json:"url"`
	Up         bool   `json:"up"`
	Generation int64  `json:"generation"`
	Logged     int    `json:"logged_requests"`
}

// ClusterStats is the /v1/stats answer.
type ClusterStats struct {
	Workers       []WorkerView `json:"workers"`
	Generation    int64        `json:"generation"`
	Redistributed int64        `json:"redistributed_total"`
	Degraded      int64        `json:"degraded_total"`
	LocalRequests int64        `json:"local_requests"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.routeMu.Lock()
	stats := ClusterStats{
		Generation:    c.generation,
		Redistributed: c.redistributed.Value(),
		Degraded:      c.degraded.Value(),
		LocalRequests: c.local.Requests(),
	}
	for _, m := range c.members {
		stats.Workers = append(stats.Workers, WorkerView{URL: m.url, Up: m.up, Generation: m.generation, Logged: m.logged})
	}
	c.routeMu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

func (c *Coordinator) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.DumpTraces(c.spanner, c.traces))
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := c.WorkersUp()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers_up": up, "degraded": up == 0, "generation": c.Generation()})
}
