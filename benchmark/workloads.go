package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcmodel"
	"dcmodel/internal/serve"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// window is what one measured window of a workload yields.
type window struct {
	attempted, failed int
	firstErr          error
	// work is the units of work completed and rate the units per second;
	// each workload states its unit and how the rate is taken.
	work, rate float64
	// op holds the latencies (ms) of the workload's primary operation and
	// reader those of the open-loop reader beside a writer (nil: none).
	op, reader []float64
	readerRate float64
	// lag is how late the open-loop sends ran, ms.
	lag []float64
	// layer holds the layer numbers only a socket run can give (counts of
	// retrains, latency of retraining POSTs, merge time, ...).
	layer map[string]float64
}

func (w *window) fail(n int, err error) {
	w.failed += n
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// absorb folds a drive's failures and attempts into the window.
func (w *window) absorb(d *driven) {
	w.attempted += len(d.samples) + d.failed
	w.fail(d.failed, d.firstErr)
}

// workload is one traffic mix with the servers it runs against.
type workload interface {
	// setup generates the inputs from the seed, pre-encodes them, starts
	// the servers and warms them. obsOn arms serve.Config.Obs.
	setup(obsOn bool) error
	// measure drives the load for about d and checks every output. rec,
	// when non-nil, receives one client span per socket operation.
	measure(d time.Duration, rec *spanRecorder) (*window, error)
	// walkInput is what the layer walk pushes through the layers.
	walkInput() walkInput
	// daemonURL is the dcmodeld whose /metrics the traced run scrapes around
	// the window; empty when the workload runs no long-lived daemon.
	daemonURL() string
	// demand predicts the workload's rate from layer-walk numbers with the
	// bottleneck law: stations with their demand in seconds per unit of
	// work, and the customers circulating among them.
	demand(layer map[string]float64) (stations []station, customers int)
	close() error
}

// workloadDef names a workload and says why it exists. The names are fixed:
// later issues refer to them.
type workloadDef struct {
	name string
	// unit is the unit of work behind work_per_s, op the operation behind
	// op_p50_ms and op.tail_ms, tail the percentile of op.tail_ms: the
	// highest that keeps ten samples beyond it in half a window.
	unit, op string
	tail     float64
	why      string
	build    func(seed int64, scale float64) workload
}

var workloads = []workloadDef{
	{"ingest-steady", "trace requests accepted", "ingest POST of 500 requests (binary)", 99,
		"write path with trainers idle: trace decode, serve window and drift accumulation, net/http; a trainer change must not move it",
		func(seed int64, _ float64) workload { return &ingestSteady{seed: seed} }},
	{"retrain-churn", "trace requests accepted", "ingest POST of 500 requests (CSV)", 95,
		"same ingest layer with the other codec, writes that retrain on every regime flip and reads beside them: trainers, markov.Drift and the ingestMu hold dominate",
		func(seed int64, scale float64) workload { return &retrainChurn{seed: seed, scale: min(scale, 1)} }},
	{"query-mix", "queries answered, closed loop", "query of the mix, open loop at 100/s, from its due time", 95,
		"read path of a warm daemon with no ingest: par.Pool queue, model synthesis, trace encode, replay, twin, optimize, crossexam",
		func(seed int64, _ float64) workload { return &queryMix{seed: seed} }},
	{"cluster-3w", "trace requests routed", "ingest POST of 500 requests through the coordinator", 99,
		"only workload where internal/cluster works: ring routing, re-encode and worker hop, shard Observe, merge and replicate under routeMu, query proxy",
		func(seed int64, scale float64) workload {
			return &cluster3w{seed: seed, epochBatches: max(int(800*scale), 8)}
		}},
	{"offline-crossexam", "trace requests cross-examined", "generate, CrossExamine, Validate of one preset at one seed", 75,
		"the paper's product (Tables 1 and 2) with no sockets: gfs, queueing, replay, crossexam, stats; carries the fidelity numbers a simulator speed-up must leave identical",
		func(seed int64, scale float64) workload {
			return &offlineCrossexam{seed: seed, unitRequests: max(int(5000*scale), 400)}
		}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---------------------------------------------------------------------------
// Ingest writers, shared by the three workloads that write.

// ingestReply is the part of an ingest response the checks read; the
// coordinator's reply has the first field only.
type ingestReply struct {
	Ingested   int    `json:"ingested"`
	Retrained  bool   `json:"retrained"`
	Reason     string `json:"retrain_reason"`
	TrainError string `json:"train_error"`
}

// writer streams a cycle of pre-encoded batches to an ingest endpoint and
// checks each reply: 200, ingested == sent, no train_error.
type writer struct {
	url     string
	codec   codec
	batches []batch
	// sent counts the batches posted so far, so that each drive continues
	// the cycle where the warm-up or the previous drive left it.
	sent int

	mu        sync.Mutex
	retrained map[int]string // batch number -> retrain reason
}

func (wr *writer) batchAt(i int) batch { return wr.batches[(wr.sent+i)%len(wr.batches)] }

func (wr *writer) post(c *conn, i int) error {
	b := wr.batchAt(i)
	code, body, err := c.postRetrying(wr.url+"/v1/ingest", wr.codec.contentType, b.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", code, bytes.TrimSpace(body))
	}
	var r ingestReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("ingest reply: %w", err)
	}
	if r.Ingested != b.requests {
		return fmt.Errorf("ingest: ingested %d of %d sent", r.Ingested, b.requests)
	}
	if r.TrainError != "" {
		return fmt.Errorf("ingest: train_error: %s", r.TrainError)
	}
	if r.Retrained {
		wr.mu.Lock()
		if wr.retrained == nil {
			wr.retrained = map[int]string{}
		}
		wr.retrained[wr.sent+i] = r.Reason
		wr.mu.Unlock()
	}
	return nil
}

// finish accounts a drive of this writer: the window's work and sliced rate,
// the operation latencies, client spans, and the retraining POSTs.
func (wr *writer) finish(d *driven, win *window, rec *spanRecorder) {
	win.absorb(d)
	work := func(s sample) float64 { return float64(wr.batchAt(s.index).requests) }
	win.rate = slicedRate(d, work)
	win.op = append(win.op, d.latencies()...)
	var retrainPosts []float64
	drift := 0
	for _, s := range d.samples {
		win.work += work(s)
		rec.add("op.ingest", d.t0, s.start, s.end)
		if reason, ok := wr.retrained[wr.sent+s.index]; ok {
			retrainPosts = append(retrainPosts, s.latencyMs())
			if reason == serve.ReasonDrift {
				drift++
			}
		}
	}
	win.layer["serve.retrain_post_ms"] = median(retrainPosts)
	win.layer["serve.retrains"] = float64(len(retrainPosts))
	win.layer["serve.drift_retrains"] = float64(drift)
	wr.sent += len(d.samples) + d.failed
}

// slicedRate is the median, over equal slices of the drive, of the work
// completed in the slice per second: one stall of the sandbox moves one
// slice, not the reported rate. Ten slices, fewer when the drive is so short
// that a slice would hold under twenty operations.
func slicedRate(d *driven, work func(sample) float64) float64 {
	if d.elapsed <= 0 {
		return 0
	}
	slices := min(max(len(d.samples)/20, 1), 10)
	done := make([]float64, slices)
	for _, s := range d.samples {
		k := int(int64(s.end) * int64(slices) / int64(d.elapsed))
		done[min(k, slices-1)] += work(s)
	}
	width := d.elapsed.Seconds() / float64(slices)
	for i := range done {
		done[i] /= width
	}
	return median(done)
}

// warmDaemon posts every batch once on one connection, then retrains on the
// full window, so the measured window starts with a full window, a model
// trained on all of it, an open connection path and a grown heap.
func warmDaemon(d *daemon, wr *writer, batches int) error {
	dr := drive(1, 0, func(i int, _ time.Duration) bool { return i < batches }, wr.post)
	wr.sent += batches
	if dr.firstErr != nil {
		return fmt.Errorf("warm-up: %w", dr.firstErr)
	}
	if err := d.srv.Retrain(); err != nil {
		return fmt.Errorf("warm-up retrain: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// ingest-steady

type ingestSteady struct {
	seed  int64
	input *trace.Trace
	d     *daemon
	wr    *writer
}

func (w *ingestSteady) setup(obsOn bool) (err error) {
	if w.input, err = generate("webtier", cycleRequests, w.seed); err != nil {
		return err
	}
	batches, err := encodeBatches(w.input, codecBinary)
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(serve.DefaultConfig(), obsOn); err != nil {
		return err
	}
	w.wr = &writer{url: w.d.url, codec: codecBinary, batches: batches}
	return warmDaemon(w.d, w.wr, len(batches))
}

func (w *ingestSteady) measure(d time.Duration, rec *spanRecorder) (*window, error) {
	win := &window{layer: map[string]float64{}}
	dr := drive(loadConns, 0, func(_ int, due time.Duration) bool { return due < d }, w.wr.post)
	w.wr.finish(dr, win, rec)
	return win, nil
}

func (w *ingestSteady) walkInput() walkInput {
	return walkInput{"webtier", codecBinary, w.input, w.input}
}
func (w *ingestSteady) daemonURL() string { return w.d.url }
func (w *ingestSteady) close() error      { return w.d.stop() }

// demand: a POST is decoded on any core and applied under ingestMu, which
// only one writer holds at a time.
func (w *ingestSteady) demand(l map[string]float64) ([]station, int) {
	apply := l["serve.ingest_apply_ns_per_req"] / 1e9
	handler := l["serve.handler_ingest_us"] / 1e6 / batchRequests
	overhead := l["serve.http_overhead_ingest_us"] / 1e6 / batchRequests
	return []station{
		{"serve.ingestMu", apply, false},
		{"cpu", (handler - apply + overhead) / float64(runtime.NumCPU()), false},
	}, loadConns
}

// ---------------------------------------------------------------------------
// retrain-churn

type retrainChurn struct {
	seed  int64
	scale float64
	// generated is the preset's trace, input the same with its storage
	// regimes flipped: what the writer streams.
	generated, input *trace.Trace
	d                *daemon
	wr               *writer
}

// readerRate is the open-loop rate of the reader beside a writer, per second.
const readerRate = 50

func (w *retrainChurn) setup(obsOn bool) (err error) {
	cfg := serve.DefaultConfig()
	// Low enough that the drift trigger can fire within a regime of
	// flipEvery requests, high enough that it fires about once per flip.
	cfg.RetrainMin = 1024
	if w.generated, err = generate("mapreduce", cycleRequests, w.seed); err != nil {
		return err
	}
	w.input = flipRegimes(w.generated, cfg.DiskBlocks, cfg.StorageRegions)
	batches, err := encodeBatches(w.input, codecCSV)
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(cfg, obsOn); err != nil {
		return err
	}
	w.wr = &writer{url: w.d.url, codec: codecCSV, batches: batches}
	// Half a cycle at full scale: the window is full and four flips have
	// retrained. Never less than a window.
	return warmDaemon(w.d, w.wr, max(int(float64(len(batches)/2)*w.scale), windowRequests/batchRequests+1))
}

func (w *retrainChurn) measure(d time.Duration, rec *spanRecorder) (*window, error) {
	win := &window{layer: map[string]float64{}}
	rd := newSynthReader(w.d.url)
	var reads *driven
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = drive(1, readerRate, func(_ int, due time.Duration) bool { return due < d }, rd.get)
	}()
	dr := drive(1, 0, func(_ int, due time.Duration) bool { return due < d }, w.wr.post)
	wg.Wait()
	w.wr.finish(dr, win, rec)
	rd.finish(reads, win, rec)

	// The run is valid only if the regime flips did what the workload is
	// for: a drift retrain on (nearly) every flip. The retrain follows its
	// flip by RetrainMin requests, so the last flip's may still be pending.
	flips := win.work / flipEvery
	win.layer["serve.flips"] = flips
	if got := win.layer["serve.drift_retrains"]; got < 0.8*(flips-1) {
		return win, fmt.Errorf("retrain-churn invalid: %.0f drift retrains over %.1f regime flips (< 0.8 per flip)", got, flips)
	}
	return win, nil
}

// walkInput: the read path is walked on the trace as generated. The window of
// two disjoint storage regimes trains a storage chain of two components that
// exchange mass through smoothing only; markov.Chain.Stationary does not
// converge on it within its iteration cap, so twin.CompileKooza refuses the
// model (at five seeds of eight). This workload never asks for a twin.
func (w *retrainChurn) walkInput() walkInput {
	return walkInput{"mapreduce", codecCSV, w.input, w.generated}
}
func (w *retrainChurn) daemonURL() string { return w.d.url }
func (w *retrainChurn) close() error      { return w.d.stop() }

// demand: one writer, so no queueing; a POST costs its handler time plus,
// once per flip, a retrain of the window.
func (w *retrainChurn) demand(l map[string]float64) ([]station, int) {
	handler := l["serve.handler_ingest_us"] / 1e6 / batchRequests
	overhead := l["serve.http_overhead_ingest_us"] / 1e6 / batchRequests
	return []station{
		{"serve.handler", handler + overhead, false},
		{"serve.retrain", l["serve.retrain_ms"] / 1e3 / flipEvery, false},
	}, 1
}

// ---------------------------------------------------------------------------
// The open-loop synthesize reader beside a writer.

// synthReader issues GET /v1/synthesize?n=1000&format=binary at a fixed
// rate. Beside a writer the model changes between reads, so bodies differ
// and none can stand for the others. Every answer is checked for its status
// as it arrives; every decodeEvery-th body is kept and decoded once the
// window has closed, off the measured path, and the others are dropped at
// once: a window's answers kept whole are some hundred megabytes of the
// generator's own in peak_rss_mb.
type synthReader struct {
	url  string
	mu   sync.Mutex
	kept [][]byte
}

const (
	synthN      = 1000
	decodeEvery = 4
)

func newSynthReader(url string) *synthReader { return &synthReader{url: url} }

func (r *synthReader) get(c *conn, i int) error {
	u := fmt.Sprintf("%s/v1/synthesize?n=%d&format=binary&seed=%d", r.url, synthN, i+1)
	code, body, err := c.do(http.MethodGet, u, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK || len(body) == 0 {
		return fmt.Errorf("synthesize: status %d, %d bytes: %s", code, len(body), bytes.TrimSpace(body))
	}
	if i%decodeEvery == 0 {
		r.mu.Lock()
		r.kept = append(r.kept, body)
		r.mu.Unlock()
	}
	return nil
}

func (r *synthReader) finish(d *driven, win *window, rec *spanRecorder) {
	win.absorb(d)
	for _, s := range d.samples {
		rec.add("op.synthesize", d.t0, s.start, s.end)
	}
	win.reader = append(win.reader, d.latencies()...)
	win.lag = append(win.lag, d.lags()...)
	if d.elapsed > 0 {
		win.readerRate = float64(len(d.samples)) / d.elapsed.Seconds()
	}
	for _, b := range r.kept {
		if err := checkTraceBody(b, "binary", synthN); err != nil {
			win.fail(1, err)
		}
	}
	win.layer["loadgen.bodies_decoded"] += float64(len(r.kept))
	r.kept = nil
}

// checkTraceBody decodes a synthesize response and wants exactly n requests.
func checkTraceBody(body []byte, format string, n int) error {
	var tr *trace.Trace
	var err error
	switch format {
	case "binary":
		tr, err = trace.ReadBinary(bytes.NewReader(body))
	case "json":
		tr, err = trace.ReadJSON(bytes.NewReader(body))
	default:
		tr, err = trace.ReadCSV(bytes.NewReader(body))
	}
	if err != nil {
		return fmt.Errorf("synthesize body (%s): %w", format, err)
	}
	if tr.Len() != n {
		return fmt.Errorf("synthesize body (%s): %d requests, want %d", format, tr.Len(), n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// query-mix

// query is one request of the mix.
type query struct {
	kind        string // span name is op.<kind>
	method, url string
	contentType string
	body        []byte
	// stable: while the model is unchanged the same query must answer with
	// the same bytes. format is set when the answer is a trace of synthN.
	stable bool
	format string
}

const (
	queryRate    = 100 // phase A, queries per second
	queryLimitMs = 250 // latency limit of the mix; slower answers are counted
	phaseAShare  = 0.5 // of the window; the rest is phase B
	mixSize      = 100 // queries per repetition of the mix
	nSynth       = 70  // of mixSize, by kind
	nReplay      = 10  //
	nWhatIf      = 14  //
	nChar        = 4   //
	nProvision   = 2   //
)

type queryMix struct {
	seed    int64
	input   *trace.Trace
	d       *daemon
	queries []query
	mix     []int // mixSize indices into queries, in send order
	issued  int

	mu     sync.Mutex
	digest map[int][sha256.Size]byte
	bodies map[int][]byte
}

func (w *queryMix) setup(obsOn bool) (err error) {
	if w.input, err = generate("chat", windowRequests, w.seed); err != nil {
		return err
	}
	batches, err := encodeBatches(w.input, codecBinary)
	if err != nil {
		return err
	}
	if w.d, err = startDaemon(serve.DefaultConfig(), obsOn); err != nil {
		return err
	}
	wr := &writer{url: w.d.url, codec: codecBinary, batches: batches}
	if err := warmDaemon(w.d, wr, len(batches)); err != nil {
		return err
	}
	w.buildMix()
	w.digest, w.bodies = map[int][sha256.Size]byte{}, map[int][]byte{}
	// One pass over the distinct queries fills every cache a query touches.
	c := newConn()
	defer c.close()
	for i := range w.queries {
		if err := w.ask(c, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// buildMix lays out the distinct queries and the order of one repetition of
// the mix, shuffled by the seed so the expensive kinds fall at seeded places.
func (w *queryMix) buildMix() {
	models := []string{"kooza", "inbreadth", "indepth"}
	formats := []string{"csv", "binary", "json"}
	u := w.d.url
	var synth, replay, whatif []int
	add := func(q query) int { w.queries = append(w.queries, q); return len(w.queries) - 1 }
	for _, m := range models {
		for _, f := range formats {
			synth = append(synth, add(query{kind: "synthesize", method: http.MethodGet, stable: true, format: f,
				url: fmt.Sprintf("%s/v1/synthesize?n=%d&model=%s&format=%s&seed=%d", u, synthN, m, f, w.seed)}))
		}
		replay = append(replay, add(query{kind: "replay", method: http.MethodGet, stable: true, format: "binary",
			url: fmt.Sprintf("%s/v1/synthesize?n=%d&model=%s&format=binary&replay=1&seed=%d", u, synthN, m, w.seed)}))
		for _, load := range []float64{1, 1.5, 2} {
			whatif = append(whatif, add(query{kind: "whatif", method: http.MethodPost, stable: true, contentType: "application/json",
				url: u + "/v1/whatif", body: []byte(fmt.Sprintf(`{"model":%q,"query":{"load_factor":%g}}`, m, load))}))
		}
	}
	char := add(query{kind: "characterize", method: http.MethodGet, url: fmt.Sprintf("%s/v1/characterize?seed=%d", u, w.seed)})
	prov := add(query{kind: "provision", method: http.MethodPost, stable: true, contentType: "application/json",
		url: u + "/v1/provision", body: []byte(`{"request":{"objective":{"target_seconds":0.2}}}`)})
	for i := 0; i < nSynth; i++ {
		w.mix = append(w.mix, synth[i%len(synth)])
	}
	for i := 0; i < nReplay; i++ {
		w.mix = append(w.mix, replay[i%len(replay)])
	}
	for i := 0; i < nWhatIf; i++ {
		w.mix = append(w.mix, whatif[i%len(whatif)])
	}
	for i := 0; i < nChar; i++ {
		w.mix = append(w.mix, char)
	}
	for i := 0; i < nProvision; i++ {
		w.mix = append(w.mix, prov)
	}
	rand.New(rand.NewSource(w.seed)).Shuffle(len(w.mix), func(i, j int) { w.mix[i], w.mix[j] = w.mix[j], w.mix[i] })
}

// ask sends query qi and checks what can be checked without decoding a
// trace: status, byte-stability, and the shape of the JSON answers. The
// first body of each stable query is kept for checkBodies.
func (w *queryMix) ask(c *conn, qi int) error {
	q := w.queries[qi]
	code, body, err := c.do(q.method, q.url, q.contentType, q.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.kind, code, bytes.TrimSpace(body))
	}
	switch q.kind {
	case "characterize":
		var r struct {
			Scores []json.RawMessage `json:"scores"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Scores) != 3 {
			return fmt.Errorf("characterize: want 3 scorecards, got %d (%v)", len(r.Scores), err)
		}
	case "provision":
		var r struct {
			Plan struct {
				Feasible bool `json:"feasible"`
			} `json:"plan"`
		}
		if err := json.Unmarshal(body, &r); err != nil || !r.Plan.Feasible {
			return fmt.Errorf("provision: no feasible plan (%v)", err)
		}
	}
	if !q.stable {
		return nil
	}
	sum := sha256.Sum256(body)
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, seen := w.digest[qi]; !seen {
		w.digest[qi], w.bodies[qi] = sum, body
	} else if first != sum {
		return fmt.Errorf("%s: answer to %s changed between identical queries", q.kind, q.url)
	}
	return nil
}

func (w *queryMix) op(c *conn, i int) error { return w.ask(c, w.mix[(w.issued+i)%mixSize]) }

func (w *queryMix) measure(d time.Duration, rec *spanRecorder) (*window, error) {
	win := &window{layer: map[string]float64{}}
	dA := time.Duration(float64(d) * phaseAShare)
	account := func(dr *driven) {
		win.absorb(dr)
		for _, s := range dr.samples {
			rec.add("op."+w.queries[w.mix[(w.issued+s.index)%mixSize]].kind, dr.t0, s.start, s.end)
			if s.latencyMs() > queryLimitMs {
				// Counted, not failed: the answer was correct, and one
				// stall of the sandbox must not fail the run.
				win.layer["loadgen.over_limit"]++
			}
		}
		w.issued += len(dr.samples) + dr.failed
	}
	// Phase A, open loop: latency at a fixed rate, each query timed from
	// the moment it was due.
	a := drive(loadConns, queryRate, func(_ int, due time.Duration) bool { return due < dA }, w.op)
	win.op, win.lag = a.latencies(), a.lags()
	account(a)
	// Phase B, closed loop: how many queries of the same mix the daemon
	// answers per second when every connection always has one outstanding.
	dB := d - dA
	b := drive(loadConns, 0, func(_ int, due time.Duration) bool { return due < dB }, w.op)
	// The mix is heterogeneous (a characterize costs fifty synthesizes), so
	// the rate is taken over the whole phase, about seven repetitions of
	// the mix, not over slices that each hold a different share of it.
	win.work = float64(len(a.samples) + len(b.samples))
	win.rate = float64(len(b.samples)) / b.elapsed.Seconds()
	account(b)

	for qi, body := range w.bodies {
		if q := w.queries[qi]; q.format != "" {
			if err := checkTraceBody(body, q.format, synthN); err != nil {
				win.fail(1, err)
			}
		}
	}
	return win, nil
}

func (w *queryMix) walkInput() walkInput {
	return walkInput{"chat", codecBinary, w.input, w.input}
}
func (w *queryMix) daemonURL() string { return w.d.url }
func (w *queryMix) close() error      { return w.d.stop() }

// demand: every query costs its handler time on one of the cores plus the
// socket and client time outside the handler, during which it holds no
// server resource.
func (w *queryMix) demand(l map[string]float64) ([]station, int) {
	perQuery := (nSynth*l["serve.handler_synth_us"] +
		nReplay*(l["serve.handler_synth_us"]+synthN*l["replay.run_ns_per_req"]/1e3) +
		nWhatIf*(l["twin.compile_us"]+l["twin.whatif_us"]) +
		nChar*l["crossexam.evaluate_ms"]*1e3 +
		nProvision*l["optimize.search_ms"]*1e3) / mixSize / 1e6
	return []station{
		{"cpu", perQuery / float64(runtime.NumCPU()), false},
		{"socket+client", l["serve.http_overhead_synth_us"] / 1e6, true},
	}, loadConns
}

// ---------------------------------------------------------------------------
// cluster-3w

const clusterWorkers = 3

type cluster3w struct {
	seed         int64
	epochBatches int // ingest POSTs per epoch: the fixed work
	input        *trace.Trace
	batches      []batch
}

func (w *cluster3w) setup(bool) (err error) {
	if w.input, err = generate("webtier", cycleRequests, w.seed); err != nil {
		return err
	}
	if w.batches, err = encodeBatches(w.input, codecBinary); err != nil {
		return err
	}
	// Every epoch builds its own cluster, so there is no server to keep
	// warm; a short epoch warms the process (heap, connection paths).
	win := &window{layer: map[string]float64{}}
	if _, err := w.epoch(min(len(w.batches), w.epochBatches), win, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if win.firstErr != nil {
		return fmt.Errorf("warm-up: %w", win.firstErr)
	}
	return nil
}

// epoch is the fixed job: a fresh coordinator and three workers, n batches
// streamed through the coordinator by one writer with the open-loop reader
// beside it, then POST /v1/merge. It returns the job's wall time. Work is
// fixed, not time, because the coordinator's memory grows with every request
// it routes.
func (w *cluster3w) epoch(n int, win *window, rec *spanRecorder) (time.Duration, error) {
	workBefore := win.work
	var heap0 runtime.MemStats
	if rec != nil {
		runtime.GC()
		runtime.ReadMemStats(&heap0)
	}
	t0 := time.Now()
	nodes, err := startCluster(clusterWorkers)
	if err != nil {
		return 0, err
	}
	defer nodes.stop()
	wr := &writer{url: nodes.coordURL, codec: codecBinary, batches: w.batches}
	rd := newSynthReader(nodes.coordURL)

	// The first batch goes in alone: before it the coordinator has no
	// model for the reader to be answered from.
	wr.finish(drive(1, 0, func(i int, _ time.Duration) bool { return i < 1 }, wr.post), win, rec)
	var writing atomic.Bool
	writing.Store(true)
	var reads *driven
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = drive(1, readerRate, func(int, time.Duration) bool { return writing.Load() }, rd.get)
	}()
	dr := drive(1, 0, func(i int, _ time.Duration) bool { return i < n-1 }, wr.post)
	writing.Store(false)
	wg.Wait()

	c := newConn()
	defer c.close()
	mergeStart := time.Now()
	code, body, err := c.do(http.MethodPost, nodes.coordURL+"/v1/merge", "", nil)
	merge := time.Since(mergeStart)
	wall := time.Since(t0)
	win.attempted++
	if err != nil || code != http.StatusOK {
		win.fail(1, fmt.Errorf("merge: status %d: %s (%v)", code, bytes.TrimSpace(body), err))
	}
	rec.add("op.merge", t0, mergeStart.Sub(t0), wall)

	wr.finish(dr, win, rec)
	rd.finish(reads, win, rec)
	win.layer["cluster.final_merge_ms"] = merge.Seconds() * 1e3
	if rec != nil {
		var heap1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap1)
		win.layer["cluster.heap_bytes_per_routed_req"] = (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / (win.work - workBefore)
	}

	// After the merge every node answers from the same replica: the same
	// query must give the same bytes from the coordinator and each worker.
	q := fmt.Sprintf("/v1/synthesize?n=%d&format=binary&seed=%d", synthN, w.seed)
	var want []byte
	for i, u := range append([]string{nodes.coordURL}, nodes.workerURLs...) {
		win.attempted++
		code, body, err := c.do(http.MethodGet, u+q, "", nil)
		switch {
		case err != nil || code != http.StatusOK:
			win.fail(1, fmt.Errorf("synthesize after merge, node %d: status %d (%v)", i, code, err))
		case i == 0:
			want = body
			if err := checkTraceBody(body, "binary", synthN); err != nil {
				win.fail(1, err)
			}
		case !bytes.Equal(body, want):
			win.fail(1, fmt.Errorf("synthesize after merge: worker %d answers other bytes than the coordinator", i-1))
		}
	}
	metrics, err := scrape(nodes.coordURL)
	if err != nil {
		return wall, err
	}
	win.layer["cluster.merges"] = metrics["dcmodel_cluster_merges_total"]
	return wall, nodes.stop()
}

func (w *cluster3w) measure(d time.Duration, rec *spanRecorder) (*window, error) {
	win := &window{layer: map[string]float64{}}
	var rates, merges []float64
	for t0 := time.Now(); time.Since(t0) < d; {
		before := win.work
		wall, err := w.epoch(w.epochBatches, win, rec)
		if err != nil {
			return win, err
		}
		rates = append(rates, (win.work-before)/wall.Seconds())
		merges = append(merges, win.layer["cluster.final_merge_ms"])
	}
	// The rate of the fixed job: requests routed over the job's wall time
	// (cluster start, stream, final merge), median over the epochs.
	win.rate = median(rates)
	win.layer["cluster.final_merge_ms"] = median(merges)
	win.layer["cluster.epochs"] = float64(len(rates))
	return win, nil
}

func (w *cluster3w) walkInput() walkInput {
	return walkInput{"webtier", codecBinary, w.input, w.input}
}
func (w *cluster3w) daemonURL() string { return "" }
func (w *cluster3w) close() error      { return nil }

// demand: one writer, so a POST costs the coordinator's handler time, a
// socket round trip from the client and one per worker RPC (the walk's
// shadow cluster calls its workers in process), plus, once per MergeEvery
// requests, a merge.
func (w *cluster3w) demand(l map[string]float64) ([]station, int) {
	const (
		mergeEvery = 4096 // cluster.CoordinatorConfig default
		// A POST of 500 is routed as two batches (256 + 244), each fanned
		// out to the three workers.
		rpcsPerPost = 2 * clusterWorkers
	)
	post := l["cluster.coord_ingest_us"] + (1+rpcsPerPost)*l["serve.http_overhead_ingest_us"]
	return []station{
		{"cluster.coordinator", post / 1e6 / batchRequests, false},
		{"cluster.merge", l["cluster.merge_ms"] / 1e3 / mergeEvery, false},
	}, 1
}

// ---------------------------------------------------------------------------
// offline-crossexam

// offlineSeeds is how many consecutive seeds the rounds cycle through, so
// that every (preset, seed) repeats and its scorecard can be compared.
const offlineSeeds = 5

type offlineCrossexam struct {
	seed         int64
	unitRequests int
	input        *trace.Trace
	digest       map[string][sha256.Size]byte
	// fidelity is KOOZA's worst-class Table 2 deviation per preset at the
	// base seed: latency and feature, as fractions.
	fidelity map[string][2]float64
}

func (w *offlineCrossexam) setup(bool) (err error) {
	// The walk input stands for the presets: the one Provision sizes.
	if w.input, err = generate("mapreduce", windowRequests, w.seed); err != nil {
		return err
	}
	w.digest, w.fidelity = map[string][sha256.Size]byte{}, map[string][2]float64{}
	// One round warms the process; nothing else outlives a unit.
	win := &window{}
	w.round(0, win)
	if win.firstErr != nil {
		return fmt.Errorf("warm-up: %w", win.firstErr)
	}
	return nil
}

// unit is the paper's pipeline for one preset at one seed: generate the
// workload, cross-examine the three approaches (Table 1), validate KOOZA
// (Table 2). The scorecard must repeat byte for byte when the seed does.
func (w *offlineCrossexam) unit(preset string, seed int64) error {
	tr, err := generate(preset, w.unitRequests, seed)
	if err != nil {
		return err
	}
	p := dcmodel.DefaultPlatform()
	scores, err := dcmodel.CrossExamine(tr, p, dcmodel.CrossExamOptions{Requests: tr.Len(), Seed: seed, SkipThroughput: true})
	if err != nil {
		return fmt.Errorf("cross-examine %s: %w", preset, err)
	}
	v, err := dcmodel.Validate(tr, tr.Len(), p, dcmodel.KoozaOptions{}, seed)
	if err != nil {
		return fmt.Errorf("validate %s: %w", preset, err)
	}
	card, err := json.Marshal(scores)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(append(card, v.Render()...))
	key := fmt.Sprintf("%s/%d", preset, seed)
	if first, seen := w.digest[key]; !seen {
		w.digest[key] = sum
	} else if first != sum {
		return fmt.Errorf("scorecard of %s changed between repeats of one seed", key)
	}
	if seed == w.seed {
		lat, feat := worstDeviations(v)
		w.fidelity[preset] = [2]float64{lat, feat}
	}
	return nil
}

// worstDeviations are the Table 2 latency and feature deviations of the
// class KOOZA reproduces worst, as fractions.
func worstDeviations(v *dcmodel.ValidationResult) (lat, feat float64) {
	for _, row := range v.Rows {
		lat, feat = max(lat, row.LatencyDeviation()), max(feat, row.FeatureDeviation())
	}
	return lat, feat
}

// round runs one unit per preset at the round's seed, then the provisioning
// search that must size mapreduce at 21 servers. It returns its wall time.
func (w *offlineCrossexam) round(k int, win *window) time.Duration {
	seed := w.seed + int64(k%offlineSeeds)
	t0 := time.Now()
	for _, preset := range spec.Names() {
		u0 := time.Now()
		win.attempted++
		if err := w.unit(preset, seed); err != nil {
			win.fail(1, err)
			continue
		}
		win.op = append(win.op, time.Since(u0).Seconds()*1e3)
		win.work += float64(w.unitRequests)
	}
	win.attempted++
	plan, err := dcmodel.Provision(context.Background(), dcmodel.ProvisionRequest{
		Spec:      "mapreduce",
		Objective: dcmodel.ProvisionObjective{TargetSeconds: 0.02},
		Space:     dcmodel.ProvisionSpace{MaxServers: 32},
	})
	if err != nil || plan.Chosen.Servers != 21 {
		win.fail(1, fmt.Errorf("provision mapreduce: %d servers, want 21 (%v)", plan.Chosen.Servers, err))
	}
	return time.Since(t0)
}

func (w *offlineCrossexam) measure(d time.Duration, _ *spanRecorder) (*window, error) {
	win := &window{layer: map[string]float64{}}
	var rates []float64
	for k, t0 := 0, time.Now(); time.Since(t0) < d; k++ {
		before := win.work
		wall := w.round(k, win)
		rates = append(rates, (win.work-before)/wall.Seconds())
	}
	// The rate of the fixed job (one round), median over the rounds.
	win.rate = median(rates)
	// Summed in the presets' order, not the map's: the mean must repeat to
	// the last digit.
	var lat, feat float64
	for _, preset := range spec.Names() {
		lat, feat = lat+w.fidelity[preset][0], feat+w.fidelity[preset][1]
	}
	if n := float64(len(w.fidelity)); n > 0 {
		win.layer["fidelity.latency_dev_pct"] = 100 * lat / n
		win.layer["fidelity.feature_dev_pct"] = 100 * feat / n
	}
	return win, nil
}

func (w *offlineCrossexam) walkInput() walkInput {
	return walkInput{"mapreduce", codecBinary, w.input, w.input}
}
func (w *offlineCrossexam) daemonURL() string { return "" }
func (w *offlineCrossexam) close() error      { return nil }

// demand: one goroutine walks the pipeline, so the layers' times add up.
func (w *offlineCrossexam) demand(l map[string]float64) ([]station, int) {
	return []station{
		{"spec.generate", l["spec.generate_ns_per_req"] / 1e9, false},
		{"crossexam", l["offline.crossexamine_ns_per_req"] / 1e9, false},
		{"validate", l["offline.validate_ns_per_req"] / 1e9, false},
	}, 1
}

// scrape reads a node's /metrics.
func scrape(url string) (map[string]float64, error) {
	c := newConn()
	defer c.close()
	code, body, err := c.do(http.MethodGet, url+"/metrics", "", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d (%v)", url, code, err)
	}
	return parseMetrics(body), nil
}

// parseMetrics reads a plain-text /metrics exposition into series -> value;
// a series is the metric name with its label set, as printed.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
