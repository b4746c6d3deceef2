package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dcmodel/internal/errs"
	"dcmodel/internal/fault"
	"dcmodel/internal/obs"
	"dcmodel/internal/trace"
)

// QueueDepthHeader lets workers piggyback their in-flight load on ingest
// responses; the coordinator's queue-depth routing scorer consumes it
// without extra RPCs.
const QueueDepthHeader = "X-Dcmodel-Queue-Depth"

// routeBatchSize is the chunk an ingest body is routed in: the most requests
// one routeMu acquisition partitions, encodes once per owner and sends as one
// POST per owner, so concurrent ingest bodies interleave at chunk granularity
// (the determinism contract makes the interleaving unobservable in the merged
// model). It also bounds what the merge cadence, checked once a chunk, can be
// overrun by, and is the default MergeEvery for that reason.
const routeBatchSize = 4096

// CoordinatorConfig configures the cluster coordinator (the master
// role).
type CoordinatorConfig struct {
	// Workers lists worker base URLs (e.g. http://10.0.0.7:9071). At
	// least one is required.
	Workers []string
	// VNodes is the virtual-node count per worker on the hash ring
	// (0 selects DefaultVNodes).
	VNodes int
	// Scorers pick the query-serving worker; nil selects all built-in
	// scorers (ParseScorers("")).
	Scorers []Scorer
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
	if c.Scorers == nil {
		c.Scorers, _ = ParseScorers("")
	}
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
	// log holds the bodies delivered to this worker since its checkpoint,
	// as the trace-v2 bytes that were sent, and logged counts the requests
	// in them. It is the re-replication source when the worker dies (the
	// GFS master's operation log): a body is appended before it is sent and
	// decoded again only when a death makes its requests orphans.
	log    [][]byte
	logged int
	// checkpoint is the worker's shard as the last completed merge pulled
	// it: every request delivered up to that merge, as counts. The merge
	// cut the log there, so checkpoint plus log is everything the worker
	// holds. Nil until the first merge after a (re)set.
	checkpoint *Model
	// generation is the merge generation last installed on the worker.
	generation int64
	// queueDepth is the worker's last piggybacked in-flight load.
	queueDepth int64
}

// share is one owner's part of a routing round. The shares are scratch of
// the coordinator, reused from round to round under routeMu.
type share struct {
	// reqs are the requests the round assigns to the owner: first the mine
	// of them that belong to the body being ingested, then orphans of dead
	// workers.
	reqs []trace.Request
	mine int
	// body is reqs as the trace-v2 stream that is logged and sent.
	body []byte
	span *obs.LiveSpan
	// depth and err are the outcome of the delivery, written on the owner's
	// goroutine and read after the join.
	depth int64
	err   error
}

// Coordinator fronts the cluster: it consistent-hash-routes ingested
// request streams to worker shards, assembles the exactly-merged global
// model, replicates it to every worker, and routes queries to the best
// worker by the configured scorers — or serves them itself from the
// merged model when no worker is up (breaker-style degradation).
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
	// and a last one for the coordinator's own shard, which members are
	// usable, and the buffer a share is encoded in before its exact copy is
	// logged.
	shares   []share
	usableAt []bool
	excluded func(worker int) bool
	enc      []byte

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
			for _, body := range m.log {
				logBytes += len(body)
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
	mux.HandleFunc("/v1/ingest", c.handleIngest)
	mux.HandleFunc("/v1/merge", c.handleMerge)
	mux.HandleFunc("/v1/model", c.handleModel)
	mux.HandleFunc("/v1/synthesize", c.handleQuery("synthesize"))
	mux.HandleFunc("/v1/characterize", c.handleQuery("characterize"))
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/traces", c.handleTraces)
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
	if err := c.post(m.url+"/v1/reset", "", nil); err != nil {
		m.downUntil = t + c.cfg.Cooldown
		return false
	}
	m.up = true
	m.log, m.logged, m.checkpoint = nil, 0, nil
	m.generation = 0
	m.queueDepth = 0
	return true
}

// reapLocked executes the armed fault schedule: every up worker the
// schedule holds down at elapsed t is killed, and what it leaves to re-route
// is returned. Callers hold routeMu and must call this, and re-route, before
// trusting membership on a write path (routing or merging).
func (c *Coordinator) reapLocked(t float64) (orphans []trace.Request) {
	if c.sched == nil {
		return nil
	}
	for i, m := range c.members {
		if m.up && c.faultDown(i, t) {
			c.kill(i, c.sched.NextUp(i, t))
			orphans = append(orphans, c.orphansLocked(i)...)
		}
	}
	return orphans
}

// kill marks worker i down until downUntil; the caller re-routes what
// orphansLocked returns for it. Callers hold routeMu.
func (c *Coordinator) kill(i int, downUntil float64) {
	m := c.members[i]
	if !m.up {
		return
	}
	m.up = false
	m.downUntil = downUntil
	c.deaths.Add(1, strconv.Itoa(i))
}

// orphansLocked takes everything a dead worker held out of it. Its
// checkpoint, the requests delivered up to the last merge, is folded into
// the coordinator's own shard: a model is integer counts, so the fold is
// exact, and every later generation counts those requests there. Its log,
// the bodies delivered since, is decoded back into the requests the caller
// re-routes. Callers hold routeMu.
func (c *Coordinator) orphansLocked(i int) (orphans []trace.Request) {
	m := c.members[i]
	if m.checkpoint != nil {
		// The checkpoint went through global.Merge when it was taken, so
		// its quantization is the coordinator's.
		if err := c.local.Merge(m.checkpoint); err != nil {
			panic(fmt.Sprintf("cluster: checkpoint of worker %d does not fold: %v", i, err))
		}
		m.checkpoint = nil
		c.folds.Inc()
	}
	for _, body := range m.log {
		tr, err := trace.ReadBinary(bytes.NewReader(body))
		if err != nil { // bytes AppendBinary wrote and nobody else touched
			panic(fmt.Sprintf("cluster: routing log of worker %d does not decode: %v", i, err))
		}
		orphans = append(orphans, tr.Requests...)
	}
	m.log, m.logged = nil, 0
	c.redistributed.Add(int64(len(orphans)))
	return orphans
}

// absorbLocked trains the coordinator's own shard on requests no worker can
// take (breaker-style degradation). Callers hold routeMu.
func (c *Coordinator) absorbLocked(reqs []trace.Request) {
	for i := range reqs {
		c.local.Observe(reqs[i])
	}
	c.degraded.Add(int64(len(reqs)))
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

// routeBatch routes one chunk of an ingest body and runs the merge the
// cadence asks for. It returns how many of the chunk's requests a worker
// took and how many the coordinator absorbed itself.
func (c *Coordinator) routeBatch(batch []trace.Request, span *obs.LiveSpan) (routed, absorbed int, err error) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	routed, absorbed, err = c.routeLocked(batch, nil, span)
	if c.cfg.MergeEvery > 0 && c.sinceMerge >= c.cfg.MergeEvery {
		// Best-effort: a failed merge leaves the previous generation
		// serving and the next cycle retries.
		_ = c.mergeLocked()
	}
	return routed, absorbed, err
}

// routeLocked is the one routing loop, for a chunk of an ingest body (mine)
// and for the orphans of dead workers (older) alike. A round reaps the fault
// schedule, assigns every pending request to its ring owner among the usable
// workers, encodes each owner's share once, appends those bytes to the
// owner's log BEFORE sending them, sends all shares side by side and joins.
// Then, in member order, an owner whose delivery failed (transport error or
// a non-200) is killed and everything it held goes into the next round;
// requests with no usable owner train the coordinator's own shard. It
// returns how many of mine a worker took and how many were absorbed.
//
// The only error is a share that does not encode, which nothing a reader
// accepts produces: it is reported before the round has logged or sent
// anything and blames no worker, the round's orphans are absorbed, and what
// is left of mine is dropped with the error. Callers hold routeMu.
func (c *Coordinator) routeLocked(mine, older []trace.Request, span *obs.LiveSpan) (routed, absorbed int, err error) {
	own := &c.shares[len(c.members)]
	defer func() {
		for i := range c.shares { // keep no request alive between calls
			sh := &c.shares[i]
			clear(sh.reqs)
			sh.reqs, sh.body, sh.span = sh.reqs[:0], nil, nil
		}
	}()
	for {
		t := c.elapsed()
		older = append(older, c.reapLocked(t)...)
		if len(mine)+len(older) == 0 {
			return routed, absorbed, nil
		}
		live := c.liveLocked(t)
		for i := range c.shares {
			c.shares[i].reqs = c.shares[i].reqs[:0]
		}
		assign := func(reqs []trace.Request) {
			for i := range reqs {
				owner := c.ring.OwnerExcluding(Key(reqs[i].ID, reqs[i].Class), c.excluded)
				if owner < 0 {
					owner = len(c.members)
				}
				c.shares[owner].reqs = append(c.shares[owner].reqs, reqs[i])
			}
		}
		assign(mine)
		for i := range c.shares {
			c.shares[i].mine = len(c.shares[i].reqs)
		}
		assign(older)

		// Encode every share before any is logged: the log holds exactly
		// what is sent.
		owners := live[:0]
		for _, i := range live {
			sh := &c.shares[i]
			if len(sh.reqs) == 0 {
				continue
			}
			if c.enc, err = trace.AppendBinary(c.enc[:0], sh.reqs); err != nil {
				c.absorbLocked(older)
				return routed, absorbed, err
			}
			sh.body = bytes.Clone(c.enc)
			owners = append(owners, i)
		}
		c.absorbLocked(own.reqs)
		absorbed += own.mine

		// Log append precedes delivery: if the POST fails (or times out
		// ambiguously) the worker is marked down and the log, this body
		// included, is re-replicated, so an acknowledged-but-unrecorded
		// delivery cannot happen. The child spans open here, in member
		// order, so a sampled tree does not depend on which POST wins.
		for _, i := range owners {
			m, sh := c.members[i], &c.shares[i]
			m.log = append(m.log, sh.body)
			m.logged += len(sh.reqs)
			sh.span = span.Child(m.spanName)
		}
		fanOut(owners, func(i int) {
			sh := &c.shares[i]
			sh.depth, sh.err = c.deliver(c.members[i].url, sh.body)
			sh.span.End()
		})

		mine, older = nil, nil
		for _, i := range owners {
			m, sh := c.members[i], &c.shares[i]
			if sh.err != nil {
				sh.span.Annotate("dead: %v", sh.err)
				c.kill(i, c.elapsed()+c.cfg.Cooldown)
				// The body just logged is at hand as requests, which tells
				// mine from the rest; the log before it is not.
				m.log, m.logged = m.log[:len(m.log)-1], m.logged-len(sh.reqs)
				c.redistributed.Add(int64(len(sh.reqs)))
				mine = append(mine, sh.reqs[:sh.mine]...)
				older = append(older, sh.reqs[sh.mine:]...)
				older = append(older, c.orphansLocked(i)...)
				continue
			}
			sh.span.Annotate("n=%d", len(sh.reqs))
			if sh.depth >= 0 {
				m.queueDepth = sh.depth
			}
			c.routed.Add(int64(len(sh.reqs)), strconv.Itoa(i))
			c.sinceMerge += len(sh.reqs)
			routed += sh.mine
		}
	}
}

// deliver POSTs one logged body to a worker and returns the queue depth the
// worker piggybacks on its answer, or -1 without one. It is the one way
// requests reach a worker, for routing and re-replication alike, and touches
// no coordinator state, so the deliveries of a round run side by side.
func (c *Coordinator) deliver(url string, body []byte) (depth int64, err error) {
	resp, err := c.client.Post(url+"/v1/ingest", trace.ContentTypeV2, bytes.NewReader(body))
	if err != nil {
		return -1, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return -1, fmt.Errorf("worker returned %d", resp.StatusCode)
	}
	if qd := resp.Header.Get(QueueDepthHeader); qd != "" {
		if v, err := strconv.ParseInt(qd, 10, 64); err == nil {
			return v, nil
		}
	}
	return -1, nil
}

// post is a bodyless-or-blob POST helper returning an error on any
// non-200.
func (c *Coordinator) post(url, contentType string, body []byte) error {
	resp, err := c.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %d", url, resp.StatusCode)
	}
	return nil
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
	var orphans []trace.Request
	for {
		// Reap, and re-route what the dead leave, before trusting
		// membership: the workers live at t are those not reaped at t.
		t := c.elapsed()
		if orphans = append(orphans, c.reapLocked(t)...); len(orphans) > 0 {
			if _, _, err := c.routeLocked(nil, orphans, nil); err != nil {
				return err
			}
			orphans = nil
			continue
		}
		live := c.liveLocked(t)
		shards := make([]*Model, len(c.members))
		errs := make([]error, len(c.members))
		fanOut(live, func(i int) { shards[i], errs[i] = c.pullModel(c.members[i].url) })
		died := false
		for _, i := range live {
			if errs[i] != nil {
				c.kill(i, c.elapsed()+c.cfg.Cooldown)
				orphans = append(orphans, c.orphansLocked(i)...)
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
		fanOut(live, func(i int) { errs[i] = c.postModel(c.members[i].url, blob, c.generation) })
		for _, i := range live {
			if errs[i] != nil {
				// Its shard is already inside this generation, and is now
				// its checkpoint: folded into the coordinator's own shard,
				// it is inside the next one too, once.
				c.kill(i, c.elapsed()+c.cfg.Cooldown)
				orphans = append(orphans, c.orphansLocked(i)...)
				continue
			}
			c.members[i].generation = c.generation
		}
		_, _, err = c.routeLocked(nil, orphans, nil)
		return err
	}
}

// pullModel fetches and decodes one worker's shard model.
func (c *Coordinator) pullModel(url string) (*Model, error) {
	resp, err := c.client.Get(url + "/v1/model")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s/v1/model returned %d", url, resp.StatusCode)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxModelBytes+1))
	if err != nil {
		return nil, err
	}
	if len(blob) > maxModelBytes {
		return nil, fmt.Errorf("%s shard model exceeds %d bytes", url, maxModelBytes)
	}
	return UnmarshalModel(blob)
}

// postModel replicates the merged model to one worker.
func (c *Coordinator) postModel(url string, blob []byte, generation int64) error {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/model", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentTypeModel)
	req.Header.Set(GenerationHeader, strconv.FormatInt(generation, 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/model returned %d", url, resp.StatusCode)
	}
	return nil
}

// handleIngest decodes a CSV or trace-v2 body and routes it across the
// worker shards, a chunk of routeBatchSize requests at a time. The answer
// counts this body's requests: routed to a worker, or absorbed by the
// coordinator itself with no worker up. A body that stops decoding is
// refused with 400 from there on; the chunks before it stay ingested.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	span := c.spanner.StartRequest("cluster:ingest", 0)
	sc := ingestScratches.Get().(*ingestScratch)
	defer sc.release()
	dec := sc.reader(io.LimitReader(r.Body, maxIngestBytes), r.Header.Get("Content-Type"))
	total, routed, absorbed := 0, 0, 0
	for eof := false; !eof; {
		req, err := dec.Next()
		switch {
		case errors.Is(err, io.EOF):
			eof = true
		case err != nil:
			span.Annotate("decode error: %v", err)
			span.Finish()
			httpError(w, http.StatusBadRequest, "decode: %v", err)
			return
		default:
			sc.batch = append(sc.batch, req)
		}
		if len(sc.batch) == routeBatchSize || (eof && len(sc.batch) > 0) {
			// The requests die with the call: the workers' logs keep the
			// bytes sent, not these.
			nr, na, err := c.routeBatch(sc.batch, span)
			if err != nil {
				span.Annotate("encode error: %v", err)
				span.Finish()
				httpError(w, http.StatusBadRequest, "encode: %v", err)
				return
			}
			total, routed, absorbed = total+len(sc.batch), routed+nr, absorbed+na
			sc.batch = sc.batch[:0]
		}
	}
	span.Annotate("requests=%d degraded=%d", total, absorbed)
	span.Finish()
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested":         total,
		"routed":           routed,
		"absorbed_locally": absorbed,
	})
}

// handleMerge runs an explicit merge+replicate cycle.
func (c *Coordinator) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
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
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
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

// pickWorker scores the usable workers for a query and returns the best
// index, or -1 when none is usable. Callers hold routeMu.
func (c *Coordinator) pickWorker(key uint64, t float64) int {
	owner := c.ring.OwnerExcluding(key, func(w int) bool { return !c.usable(w, t) })
	if owner < 0 {
		return -1
	}
	best, bestScore := -1, 0.0
	for i, m := range c.members {
		if !c.usable(i, t) {
			continue
		}
		info := WorkerInfo{
			Index:         i,
			QueueDepth:    m.queueDepth,
			GenerationLag: c.generation - m.generation,
			OwnsKey:       i == owner,
		}
		score := 0.0
		for _, s := range c.cfg.Scorers {
			score += s.Score(info)
		}
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// handleQuery routes /v1/synthesize and /v1/characterize to the
// best-scoring worker, or answers locally from the merged model when no
// worker is up — the cluster's analogue of the single-node breaker
// staying on the last good model.
func (c *Coordinator) handleQuery(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		n, seed, format, err := synthParams(r, c.cfg.MaxSynth)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		c.routeMu.Lock()
		if c.generation == 0 {
			_ = c.mergeLocked()
		}
		t := c.elapsed()
		pick := c.pickWorker(Key(seed, endpoint), t)
		var target string
		if pick >= 0 {
			target = c.members[pick].url
		}
		global := c.global
		gen := c.generation
		c.routeMu.Unlock()

		if target != "" {
			c.queryRouted.Add(1, strconv.Itoa(pick))
			if c.proxy(w, target+r.URL.Path+"?"+r.URL.RawQuery) {
				return
			}
			// The pick died under us; fall through to the local answer
			// rather than failing the query. The next routing pass will
			// mark it down.
		}
		if global == nil || global.Requests() == 0 {
			httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
			return
		}
		c.degraded.Inc()
		w.Header().Set(GenerationHeader, strconv.FormatInt(gen, 10))
		switch endpoint {
		case "characterize":
			writeJSON(w, http.StatusOK, global.Characterize())
		default:
			tr, err := global.Synthesize(n, rand.New(rand.NewSource(seed)))
			if err != nil {
				httpError(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			writeTrace(w, tr, format)
		}
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
	QueueDepth int64  `json:"queue_depth"`
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
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	c.routeMu.Lock()
	stats := ClusterStats{
		Generation:    c.generation,
		Redistributed: c.redistributed.Value(),
		Degraded:      c.degraded.Value(),
		LocalRequests: c.local.Requests(),
	}
	for _, m := range c.members {
		stats.Workers = append(stats.Workers, WorkerView{
			URL:        m.url,
			Up:         m.up,
			Generation: m.generation,
			QueueDepth: m.queueDepth,
			Logged:     m.logged,
		})
	}
	c.routeMu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

func (c *Coordinator) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	dump := obs.TraceDump{Traces: []*obs.TreeDump{}}
	if c.spanner != nil {
		dump.Enabled = true
		dump.SampleEvery = c.spanner.SampleEvery()
		dump.Capacity = c.traces.Cap()
		dump.Started, dump.Sampled = c.spanner.Stats()
		for _, t := range c.traces.Snapshot() {
			if td := obs.DumpTree(t); td != nil {
				dump.Traces = append(dump.Traces, td)
			}
		}
		dump.Held = len(dump.Traces)
	}
	writeJSON(w, http.StatusOK, dump)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := c.WorkersUp()
	c.routeMu.Lock()
	gen := c.generation
	c.routeMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"workers_up": up,
		"degraded":   up == 0,
		"generation": gen,
	})
}
