package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"dcmodel"
	"dcmodel/internal/cluster"
	"dcmodel/internal/crossexam"
	"dcmodel/internal/gfs"
	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/obs"
	"dcmodel/internal/optimize"
	"dcmodel/internal/par"
	"dcmodel/internal/queueing"
	"dcmodel/internal/replay"
	"dcmodel/internal/serve"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// The layer walk pushes the workload's own input through each layer's public
// function on shadow instances, one span per call, in the order a request
// meets the layers. It is how the layers are measured from outside: nothing
// inside the program is instrumented.

// walker times calls and records them as spans.
type walker struct {
	rec  *spanRecorder
	out  map[string]float64
	op   int // operation id of the current root span
	root int
	// once makes every call run a single time: the smoke test wants the
	// walk's shape, not its medians.
	once bool
}

// operation opens a root span under which the following timed calls are
// recorded.
func (w *walker) operation(name string) (done func()) {
	w.op = w.rec.newOp()
	w.root = w.rec.begin(name, w.op, 0)
	return func() { w.rec.end(w.root) }
}

// timed calls fn reps times, each call one child span of the current
// operation, and returns the median duration of a call. The heap is collected
// first, so that a collection some earlier call provoked is not billed to
// this one.
func (w *walker) timed(name string, reps int, fn func()) time.Duration {
	if w.once {
		reps = 1
	}
	runtime.GC()
	ds := make([]float64, reps)
	for i := range ds {
		id := w.rec.begin(name, w.op, w.root)
		fn()
		ds[i] = float64(w.rec.end(id))
	}
	return time.Duration(median(ds))
}

// step is one layer call of a walk.
type step struct {
	name string
	fn   func()
}

// walk pushes one input through the steps in order, reps times over: each
// repetition is an operation of its own with a root span, each step a child
// span. It returns every step's median duration. Because the steps of a
// repetition run back to back, they see the same machine state, and a sum of
// steps can be held against a step that contains them.
func (w *walker) walk(name string, reps int, steps ...step) map[string]time.Duration {
	if w.once {
		reps = 1
	}
	runtime.GC()
	ds := map[string][]float64{}
	for i := 0; i < reps; i++ {
		op := w.rec.newOp()
		root := w.rec.begin(name, op, 0)
		for _, st := range steps {
			id := w.rec.begin(st.name, op, root)
			st.fn()
			ds[st.name] = append(ds[st.name], float64(w.rec.end(id)))
		}
		w.rec.end(root)
	}
	out := map[string]time.Duration{}
	for name, d := range ds {
		out[name] = time.Duration(median(d))
	}
	return out
}

// must panics on the errors of a walk call: the walk runs on inputs the
// socket run has already accepted, so an error here is a bug in the walk. The
// panic is recovered by walkLayers and returned.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Errorf("layer walk: %w", err))
	}
	return v
}

func mustOK(err error) { must(0, err) }

// mustIngest folds a trace into a shadow daemon's window.
func mustIngest(s *serve.Server, tr *trace.Trace) {
	_, _, err := s.Ingest(tr)
	mustOK(err)
}

// walkInput is what a workload hands the layer walk.
type walkInput struct {
	preset string // the traces were generated from it
	ingest codec  // the workload ingests in it
	// writes goes down the write path (ingest, window, trainers, cluster);
	// the models of the read path (synthesis, replay, crossexam, twin,
	// optimize, the offline pipeline) are trained on reads. They are the
	// same trace unless the workload rewrote its input for the write path.
	writes, reads *trace.Trace
}

// walkLayers runs the walk for one workload's input and returns the per-layer
// metrics it yields. Below full scale the window shrinks with the scale and
// every call runs once.
func walkLayers(rec *spanRecorder, in walkInput, seed int64, scale float64) (out map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	w := &walker{rec: rec, out: map[string]float64{}, once: scale < 1}
	size := max(int(windowRequests*min(scale, 1)), 2*batchRequests)
	windowOf := func(tr *trace.Trace) *trace.Trace { return &trace.Trace{Requests: tr.Requests[:min(size, tr.Len())]} }
	window, reads := windowOf(in.writes), windowOf(in.reads)
	first := &trace.Trace{Requests: window.Requests[:min(batchRequests, window.Len())]}

	// A live shadow daemon with a full window, a model trained on it, and
	// production's ingest path (the drift test runs on every POST) but no
	// retrain the walk did not ask for.
	live := quietConfig()
	live.RetrainMin = serve.DefaultConfig().RetrainMin
	shadow, err := startDaemon(live, false)
	if err != nil {
		return nil, err
	}
	defer shadow.stop()
	mustIngest(shadow.srv, window)

	w.walkIngest(shadow, window, first, in.ingest)
	w.walkSynthesize(shadow, seed)
	w.walkPrimitives(in.preset, window, seed)
	w.walkTrain(window)
	w.walkQueries(reads, seed)
	w.walkCluster(window, first)
	w.walkOffline(reads, seed)
	return w.out, nil
}

const (
	fewReps  = 3  // calls of tens of milliseconds
	someReps = 7  // calls of milliseconds
	manyReps = 21 // calls of microseconds
)

// recorded sends one request to a handler through a recorder, no socket.
func recorded(h http.Handler, method, url, contentType string, body []byte) {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		panic(fmt.Errorf("layer walk: %s %s: status %d: %s", method, url, rr.Code, bytes.TrimSpace(rr.Body.Bytes())))
	}
}

// quietConfig is the daemon's default with every automatic retrain
// suppressed, for shadows whose calls must do one thing only.
func quietConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.RetrainMin = 1 << 30
	cfg.RetrainInterval = 24 * time.Hour
	cfg.PollInterval = 24 * time.Hour
	return cfg
}

// regionSequences maps each request's storage spans to the daemon's region
// quantization, as serve's ingest path does before markov sees them.
func regionSequences(tr *trace.Trace) [][]int {
	cfg := serve.DefaultConfig()
	per := cfg.DiskBlocks / int64(cfg.StorageRegions)
	var seqs [][]int
	for _, r := range tr.Requests {
		var seq []int
		for _, sp := range r.Spans {
			if sp.Subsystem == trace.Storage {
				seq = append(seq, int(min(max(sp.LBN, 0)/per, int64(cfg.StorageRegions-1))))
			}
		}
		if len(seq) > 0 {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// socketDo sends one request to the shadow daemon over its loopback socket.
func socketDo(c *conn, method, url, contentType string, body []byte) {
	if code, _, err := c.do(method, url, contentType, body); err != nil || code != http.StatusOK {
		panic(fmt.Errorf("layer walk: %s %s over the socket: status %d (%v)", method, url, code, err))
	}
}

// walkIngest follows one batch down the write path: the load generator's
// encode, then the daemon's decode, window and drift accumulation, and drift
// test, each by its public function; then the same batch through the ingest
// handler on a recorder, which runs all of those, and through the socket,
// which adds net/http and the kernel.
func (w *walker) walkIngest(shadow *daemon, window, first *trace.Trace, ingest codec) {
	n := float64(first.Len())
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	cfg := serve.DefaultConfig()

	quiet := must(serve.New(quietConfig()))
	defer quiet.Close()
	mustIngest(quiet, window) // cold retrain on the full window
	acc := must(markov.NewAccumulator(cfg.StorageRegions, cfg.Smoothing))
	for _, s := range regionSequences(window) {
		mustOK(acc.Observe(s))
	}
	chain := must(acc.Chain())

	var bin, csv, js bytes.Buffer
	decode := func(buf *bytes.Buffer, contentType string) func() {
		return func() {
			rd := trace.NewRequestReader(bytes.NewReader(buf.Bytes()), contentType)
			for {
				if _, err := rd.Next(); err == io.EOF {
					return
				} else if err != nil {
					panic(fmt.Errorf("layer walk: decode: %w", err))
				}
			}
		}
	}
	// The POST travels in the codec the workload ingests.
	body, decodeStep := &bin, "trace.decode_binary"
	if ingest.name == codecCSV.name {
		body, decodeStep = &csv, "trace.decode_csv"
	}
	h := shadow.srv.Handler()
	c := newConn()
	defer c.close()
	d := w.walk("walk.ingest", manyReps,
		step{"trace.encode_binary", func() { bin.Reset(); mustOK(trace.WriteBinary(&bin, first)) }},
		step{"trace.encode_csv", func() { csv.Reset(); mustOK(trace.WriteCSV(&csv, first)) }},
		step{"trace.encode_json", func() { js.Reset(); mustOK(trace.WriteJSON(&js, first)) }},
		step{"trace.decode_binary", decode(&bin, codecBinary.contentType)},
		step{"trace.decode_csv", decode(&csv, codecCSV.contentType)},
		step{"serve.ingest_apply", func() { mustIngest(quiet, first) }},
		step{"markov.drift", func() { must(markov.Drift(chain, acc, 5)) }},
		step{"serve.handler_ingest", func() { recorded(h, http.MethodPost, "/v1/ingest", ingest.contentType, body.Bytes()) }},
	)
	// Handler and socket by turns, nothing else between: the connection
	// stays as hot as a closed loop keeps it.
	s := w.walk("walk.ingest_socket", manyReps,
		step{"serve.handler_ingest", func() { recorded(h, http.MethodPost, "/v1/ingest", ingest.contentType, body.Bytes()) }},
		step{"socket.ingest", func() { socketDo(c, http.MethodPost, shadow.url+"/v1/ingest", ingest.contentType, body.Bytes()) }},
	)
	w.out["trace.encode_binary_ns_per_req"] = perReq(d["trace.encode_binary"])
	w.out["trace.encode_csv_ns_per_req"] = perReq(d["trace.encode_csv"])
	w.out["trace.encode_json_ns_per_req"] = perReq(d["trace.encode_json"])
	w.out["trace.decode_binary_ns_per_req"] = perReq(d["trace.decode_binary"])
	w.out["trace.decode_csv_ns_per_req"] = perReq(d["trace.decode_csv"])
	w.out["trace.binary_bytes_per_req"] = float64(bin.Len()) / n
	w.out["trace.csv_bytes_per_req"] = float64(csv.Len()) / n
	w.out["serve.ingest_apply_ns_per_req"] = perReq(d["serve.ingest_apply"])
	w.out["markov.drift_us"] = d["markov.drift"].Seconds() * 1e6
	w.out["serve.handler_ingest_us"] = d["serve.handler_ingest"].Seconds() * 1e6
	w.out["serve.http_overhead_ingest_us"] = (s["socket.ingest"] - s["serve.handler_ingest"]).Seconds() * 1e6
	// The layers walked one by one, against the handler that calls them
	// all: what the walk does not see is the difference.
	w.out["walk.ingest_coverage"] = float64(d[decodeStep]+d["serve.ingest_apply"]+d["markov.drift"]) / float64(d["serve.handler_ingest"])

	defer w.operation("walk.retrain_window")()
	w.out["serve.retrain_ms"] = w.timed("serve.retrain", fewReps+2, func() { mustOK(quiet.Retrain()) }).Seconds() * 1e3
}

// walkSynthesize follows one synthesize query up the read path: the model's
// batch synthesis and the CSV encode by their public functions, then the
// handler that runs both behind the work queue, then the socket.
func (w *walker) walkSynthesize(shadow *daemon, seed int64) {
	kz, _, _, _ := shadow.srv.Models()
	var synth *trace.Trace
	var buf bytes.Buffer
	url := fmt.Sprintf("/v1/synthesize?n=%d&model=kooza&format=csv&seed=%d", synthN, seed)
	h := shadow.srv.Handler()
	c := newConn()
	defer c.close()
	d := w.walk("walk.synthesize", someReps,
		step{"kooza.synth", func() { synth = must(kz.SynthesizeBatch(synthN, rand.New(rand.NewSource(seed)))) }},
		step{"trace.encode_csv_synth", func() { buf.Reset(); mustOK(trace.WriteCSV(&buf, synth)) }},
		step{"serve.handler_synth", func() { recorded(h, http.MethodGet, url, "", nil) }},
	)
	s := w.walk("walk.synthesize_socket", someReps,
		step{"serve.handler_synth", func() { recorded(h, http.MethodGet, url, "", nil) }},
		step{"socket.synthesize", func() { socketDo(c, http.MethodGet, shadow.url+url, "", nil) }},
	)
	w.out["kooza.synth_ns_per_req"] = float64(d["kooza.synth"].Nanoseconds()) / synthN
	w.out["serve.handler_synth_us"] = d["serve.handler_synth"].Seconds() * 1e6
	w.out["serve.http_overhead_synth_us"] = (s["socket.synthesize"] - s["serve.handler_synth"]).Seconds() * 1e6
	w.out["walk.synth_coverage"] = float64(d["kooza.synth"]+d["trace.encode_csv_synth"]) / float64(d["serve.handler_synth"])
}

// walkPrimitives times the small pieces requests are built from, many calls
// to a span: input generation, markov accumulation and stepping, a trip
// through the work pool, a stage measurement of the obs layer.
func (w *walker) walkPrimitives(preset string, window *trace.Trace, seed int64) {
	defer w.operation("walk.primitives")()
	d := w.timed("spec.generate", fewReps, func() { must(generate(preset, window.Len(), seed)) })
	w.out["spec.generate_ns_per_req"] = float64(d.Nanoseconds()) / float64(window.Len())

	cfg := serve.DefaultConfig()
	seqs := regionSequences(window)
	acc := must(markov.NewAccumulator(cfg.StorageRegions, cfg.Smoothing))
	observe := w.timed("markov.observe", someReps, func() {
		acc.Reset()
		for _, s := range seqs {
			mustOK(acc.Observe(s))
		}
	})
	w.out["markov.observe_ns_per_transition"] = float64(observe.Nanoseconds()) / float64(max(acc.Transitions(), 1))
	chain := must(acc.Chain())
	states := make([]int, 4096)
	rng := rand.New(rand.NewSource(seed))
	stepn := w.timed("markov.stepn", manyReps, func() { chain.StepN(chain.Start(rng), rng, states) })
	w.out["markov.stepn_ns_per_state"] = float64(stepn.Nanoseconds()) / float64(len(states))

	const trips = 2000
	pool := par.NewPool(loadConns, 64)
	defer pool.Close()
	done := make(chan struct{})
	roundtrip := w.timed("par.pool_roundtrips", someReps, func() {
		for i := 0; i < trips; i++ {
			if !pool.TrySubmit(func() { done <- struct{}{} }) {
				panic(fmt.Errorf("layer walk: idle pool refused a job"))
			}
			<-done
		}
	})
	w.out["par.pool_roundtrip_ns"] = float64(roundtrip.Nanoseconds()) / trips

	reg := obs.NewRegistry()
	secs := reg.HistogramVec("walk_stage_seconds", "", "stage", obs.StageSecondsBuckets)
	alloc := reg.HistogramVec("walk_stage_alloc_bytes", "", "stage", obs.StageAllocBuckets)
	pair := w.timed("obs.stage_pairs", someReps, func() {
		for i := 0; i < trips; i++ {
			obs.Stage(nil, "walk", secs, alloc)()
		}
	})
	w.out["obs.stage_pair_ns"] = float64(pair.Nanoseconds()) / trips
}

// trainOptions are the options the daemon trains kooza and inbreadth with.
func trainOptions() (kooza.Options, inbreadth.Options) {
	cfg := serve.DefaultConfig()
	return kooza.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing},
		inbreadth.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing}
}

// walkTrain follows a retrain: the three trainers on a full window.
func (w *walker) walkTrain(window *trace.Trace) {
	defer w.operation("walk.retrain")()
	kz, ib := trainOptions()
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	w.out["kooza.train_ms"] = ms(w.timed("kooza.train", fewReps+2, func() { must(kooza.Train(window, kz)) }))
	w.out["inbreadth.train_ms"] = ms(w.timed("inbreadth.train", fewReps+2, func() { must(inbreadth.Train(window, ib)) }))
	w.out["indepth.train_ms"] = ms(w.timed("indepth.train", fewReps+2, func() { must(indepth.Train(window)) }))
}

// walkQueries times the rest of the read path on models trained on window:
// synthesis by the other two models, replay, cross-examination, the twin and
// the provisioning search.
func (w *walker) walkQueries(window *trace.Trace, seed int64) {
	kzOpts, ibOpts := trainOptions()
	kz, ib, id := must(kooza.Train(window, kzOpts)), must(inbreadth.Train(window, ibOpts)), must(indepth.Train(window))
	defer w.operation("walk.query")()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / synthN }
	synth := must(kz.SynthesizeBatch(synthN, rng()))
	w.out["inbreadth.synth_ns_per_req"] = perReq(w.timed("inbreadth.synth", someReps, func() { must(ib.SynthesizeBatch(synthN, rng())) }))
	w.out["indepth.synth_ns_per_req"] = perReq(w.timed("indepth.synth", someReps, func() { must(id.SynthesizeBatch(synthN, rng())) }))

	platform := replay.Platform{NewServer: gfs.DefaultServerHW}
	w.out["replay.run_ns_per_req"] = perReq(w.timed("replay.run", someReps, func() { must(replay.Run(synth, platform)) }))

	// As /v1/characterize runs it: warm models, 2000 requests, one worker.
	approaches := []crossexam.Approach{
		{Name: "in-breadth", Knobs: 3, Synthesize: ib.SynthesizeBatch, NumParams: ib.NumParams()},
		{Name: "in-depth", Knobs: 1, SelfTimed: true, Synthesize: id.SynthesizeBatch, NumParams: id.NumParams()},
		{Name: "KOOZA", Knobs: 5, Synthesize: kz.SynthesizeBatch, NumParams: kz.NumParams()},
	}
	evaluate := w.timed("crossexam.evaluate", fewReps, func() {
		must(crossexam.Evaluate(window, approaches, min(window.Len(), 2000), platform, crossexam.Options{Seed: seed, Workers: 1}))
	})
	w.out["crossexam.evaluate_ms"] = evaluate.Seconds() * 1e3

	var tw *twin.Twin
	compile := w.timed("twin.compile", someReps, func() { tw = must(twin.CompileKooza(kz, gfs.DefaultServerHW(), 0)) })
	w.out["twin.compile_us"] = compile.Seconds() * 1e6
	w.out["twin.whatif_us"] = w.timed("twin.whatif", manyReps, func() { must(tw.WhatIf(twin.Query{LoadFactor: 1.5})) }).Seconds() * 1e6

	// As /v1/provision runs it: twins on every platform of the space, the
	// window characterized into the DES model, then the search.
	req := optimize.Request{Objective: optimize.Objective{TargetSeconds: 0.2}}.WithDefaults()
	twins := map[string]*twin.Twin{}
	for _, name := range optimize.SpaceDefaults(req.Space).Platforms {
		p, ok := optimize.PlatformByName(name)
		if !ok {
			panic(fmt.Errorf("layer walk: unknown platform %q", name))
		}
		twins[name] = must(twin.CompileKooza(kz, p.NewServer(), 0))
	}
	des := must(optimize.NewDESModel(window, req))
	var plan optimize.Plan
	search := w.timed("optimize.search", fewReps, func() {
		plan = must(optimize.Search(context.Background(), optimize.Input{Twins: twins, DES: des}, req))
	})
	w.out["optimize.search_ms"] = search.Seconds() * 1e3
	w.out["optimize.twin_evals"] = float64(plan.TwinEvals)
	w.out["optimize.des_runs"] = float64(plan.DESRuns)
}

// handlerTransport answers a coordinator's worker RPCs by calling the
// worker's handler in process: the shadow cluster needs no sockets.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no shadow worker %q", r.URL.Host)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, r)
	return rr.Result(), nil
}

// walkCluster follows a request through internal/cluster: ring key, shard
// Observe, the worker and coordinator handlers, merge, marshal, synthesize.
func (w *walker) walkCluster(window, first *trace.Trace) {
	defer w.operation("walk.cluster")()
	n := float64(window.Len())
	const keys = 100000
	ring := must(cluster.NewRing(clusterWorkers, 0))
	var sink int
	key := w.timed("cluster.ring_keys", someReps, func() {
		for i := 0; i < keys; i++ {
			sink += ring.Owner(cluster.Key(int64(i), "walk"))
		}
	})
	w.out["cluster.ring_key_ns"] = float64(key.Nanoseconds()) / keys

	shards := make([]*cluster.Model, clusterWorkers)
	observe := w.timed("cluster.model_observe", someReps, func() {
		for i := range shards {
			shards[i] = must(cluster.NewModel(cluster.ModelConfig{}))
		}
		for i, r := range window.Requests {
			shards[i%clusterWorkers].Observe(r)
		}
	})
	w.out["cluster.model_observe_ns_per_req"] = float64(observe.Nanoseconds()) / n
	var global *cluster.Model
	w.out["cluster.model_merge_us"] = w.timed("cluster.model_merge", manyReps, func() {
		global = must(cluster.NewModel(cluster.ModelConfig{}))
		for _, s := range shards {
			mustOK(global.Merge(s))
		}
	}).Seconds() * 1e6
	var blob []byte
	w.out["cluster.model_marshal_us"] = w.timed("cluster.model_marshal", manyReps, func() { blob = must(global.MarshalBinary()) }).Seconds() * 1e6
	w.out["cluster.model_unmarshal_us"] = w.timed("cluster.model_unmarshal", manyReps, func() { must(cluster.UnmarshalModel(blob)) }).Seconds() * 1e6
	rng := rand.New(rand.NewSource(1))
	synth := w.timed("cluster.synth", someReps, func() { must(global.Synthesize(synthN, rng)) })
	w.out["cluster.synth_ns_per_req"] = float64(synth.Nanoseconds()) / synthN

	transport := handlerTransport{}
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		host := fmt.Sprintf("worker%d", i)
		transport[host] = must(cluster.NewWorker(cluster.WorkerConfig{})).Handler()
		urls = append(urls, "http://"+host)
	}
	coord := must(cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: urls, Client: &http.Client{Transport: transport}}))
	var body bytes.Buffer
	mustOK(trace.WriteBinary(&body, first))
	post := func(h http.Handler) func() {
		return func() { recorded(h, http.MethodPost, "/v1/ingest", trace.ContentTypeV2, body.Bytes()) }
	}
	w.out["cluster.worker_ingest_us"] = w.timed("cluster.worker_ingest", manyReps, post(transport["worker0"])).Seconds() * 1e6
	w.out["cluster.coord_ingest_us"] = w.timed("cluster.coord_ingest", manyReps, post(coord.Handler())).Seconds() * 1e6
	w.out["cluster.merge_ms"] = w.timed("cluster.merge", someReps, func() {
		recorded(coord.Handler(), http.MethodPost, "/v1/merge", "", nil)
	}).Seconds() * 1e3
	_ = sink
}

// walkOffline follows the offline pipeline: the simulators under it, then
// cross-examination and validation of the walk input, whose Table 2
// deviations are the fidelity numbers.
func (w *walker) walkOffline(window *trace.Trace, seed int64) {
	defer w.operation("walk.offline")()
	const simRequests = 2000
	sim := w.timed("gfs.simulate", fewReps, func() {
		must(dcmodel.Simulate(dcmodel.DefaultGFSConfig(), dcmodel.GFSRun{
			RunConfig: dcmodel.RunConfig{Mix: dcmodel.Table2Mix(), Requests: simRequests, Seed: seed},
			Rate:      20,
		}))
	})
	w.out["gfs.simulate_ns_per_req"] = float64(sim.Nanoseconds()) / simRequests

	// A three-tier tandem at 60 % utilisation of the slowest tier; an event
	// is one station visit.
	const jobs = 20000
	tiers := []float64{200, 90, 60}
	cfg := queueing.Config{
		Classes:      []queueing.Class{{Name: "req", Weight: 1, Path: []int{0, 1, 2}}},
		Interarrival: stats.Exponential{Rate: 36},
		NumJobs:      jobs,
	}
	for i, mu := range tiers {
		cfg.Stations = append(cfg.Stations, queueing.Station{Name: fmt.Sprintf("tier%d", i), Servers: 1, Service: stats.Exponential{Rate: mu}})
	}
	des := w.timed("queueing.simulate", fewReps, func() { must(queueing.Simulate(cfg, rand.New(rand.NewSource(seed)))) })
	w.out["queueing.des_events_per_s"] = float64(jobs*len(tiers)) / des.Seconds()

	unit := &trace.Trace{Requests: window.Requests[:min(5000, window.Len())]}
	n := float64(unit.Len())
	p := dcmodel.DefaultPlatform()
	ce := w.timed("offline.crossexamine", 1, func() {
		must(dcmodel.CrossExamine(unit, p, dcmodel.CrossExamOptions{Requests: unit.Len(), Seed: seed, SkipThroughput: true}))
	})
	w.out["offline.crossexamine_ns_per_req"] = float64(ce.Nanoseconds()) / n
	var v *dcmodel.ValidationResult
	va := w.timed("offline.validate", 1, func() { v = must(dcmodel.Validate(unit, unit.Len(), p, dcmodel.KoozaOptions{}, seed)) })
	w.out["offline.validate_ns_per_req"] = float64(va.Nanoseconds()) / n
	lat, feat := worstDeviations(v)
	w.out["fidelity.latency_dev_pct"] = 100 * lat
	w.out["fidelity.feature_dev_pct"] = 100 * feat
}

// station is one resource of the bottleneck-law self-check: its demand in
// seconds per unit of work, and whether work only passes time there (delay)
// or queues for it.
type station struct {
	name   string
	demand float64
	delay  bool
}

// predictRate feeds measured layer demands to the repo's own mean value
// analysis: the rate the workload should reach with that many customers, and
// the knee the bottleneck law puts at one over the largest demand.
func predictRate(stations []station, customers int) (rate, knee float64, bottleneck string, err error) {
	ms := make([]queueing.MVAStation, len(stations))
	for i, s := range stations {
		ms[i] = queueing.MVAStation{Name: s.name, Demand: max(s.demand, 1e-12), Delay: s.delay}
	}
	res, err := queueing.MVA(ms, customers)
	if err != nil {
		return 0, 0, "", err
	}
	b, err := queueing.Bottleneck(ms)
	if err != nil {
		return 0, 0, "", err
	}
	return res[customers-1].Throughput, 1 / ms[b].Demand, ms[b].Name, nil
}
