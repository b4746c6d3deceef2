package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dcmodel/internal/crossexam"
	"dcmodel/internal/errs"
	"dcmodel/internal/fault"
	"dcmodel/internal/hw"
	"dcmodel/internal/obs"
	"dcmodel/internal/replay"
	"dcmodel/internal/trace"
	"dcmodel/internal/twin"
)

// Handler returns the daemon's HTTP handler (also used directly by the
// lifecycle tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.instrumented("ingest", s.handleIngest))
	mux.HandleFunc("/v1/synthesize", s.instrumented("synthesize", s.handleSynthesize))
	mux.HandleFunc("/v1/characterize", s.instrumented("characterize", s.handleCharacterize))
	mux.HandleFunc("/v1/replay", s.instrumented("replay", s.handleReplay))
	mux.HandleFunc("/v1/whatif", s.instrumented("whatif", s.handleWhatIf))
	mux.HandleFunc("/v1/provision", s.instrumented("provision", s.handleProvision))
	mux.HandleFunc("/v1/faults", s.timed("faults", s.handleFaults))
	mux.HandleFunc("/v1/traces", s.timed("traces", s.handleTraces))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Obs != nil && s.cfg.Obs.Pprof {
		obs.RegisterPprof(mux)
	}
	return mux
}

// statusWriter captures the status code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// timed wraps a handler with latency/status accounting.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.metrics.observe(name, sw.code, time.Since(start).Seconds())
	}
}

// instrumented is timed plus live tracing: when the tracer samples this
// request, a root span rides the request context through the pipeline
// stages, the response status is annotated, and the finished tree is
// delivered to the trace ring. Unsampled requests (and daemons without
// Obs) pay one atomic increment.
func (s *Server) instrumented(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		span := s.spanner.StartRequest("http:"+name, 0)
		if span != nil {
			r = r.WithContext(obs.ContextWithSpan(r.Context(), span))
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		span.Annotate("status=%d", sw.code)
		span.Finish()
		s.metrics.observe(name, sw.code, time.Since(start).Seconds())
	}
}

// stage starts one measured pipeline stage: a child span under the
// request's sampled trace (if any) plus the wall/alloc histograms when
// the observability layer is armed. Callers defer or call the returned
// stop function.
func (s *Server) stage(span *obs.LiveSpan, name string) func() {
	return obs.Stage(span, name, s.stageSecs, s.stageAlloc)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// querySeed parses the seed parameter; seeds must be positive, matching
// the CLI flag contract.
func querySeed(r *http.Request) (int64, error) {
	v := r.URL.Query().Get("seed")
	if v == "" {
		return 1, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad seed %q: need a positive integer", v)
	}
	return n, nil
}

// enqueue admits job to the bounded work queue and waits for it under the
// per-request deadline. It owns the full backpressure contract: 429 +
// Retry-After on a full queue, 503 while draining, 504 on deadline.
// The job must send exactly one func on done (its response writer).
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, job func(ctx context.Context) func(http.ResponseWriter)) bool {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	done := make(chan func(http.ResponseWriter), 1)
	admitted := s.pool.TrySubmit(func() {
		if ctx.Err() != nil {
			// The client gave up (or the deadline passed) while the job
			// was queued; skip the work.
			done <- nil
			return
		}
		done <- job(ctx)
	})
	if !admitted {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "work queue full (%d deep)", s.cfg.QueueDepth)
		return false
	}
	select {
	case respond := <-done:
		if respond == nil {
			s.metrics.deadline.Add(1)
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded while queued")
			return false
		}
		respond(w)
		return true
	case <-ctx.Done():
		s.metrics.deadline.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return false
	}
}

// isBinaryTrace reports whether the request body is a trace-v2 stream
// (Content-Type: application/x-dcmodel-trace-v2, media-type parameters
// ignored). Anything else is treated as CSV, the default interchange
// format. The media-type check itself lives in internal/trace
// (IsBinaryMediaType), shared with the cluster coordinator and worker.
func isBinaryTrace(r *http.Request) bool {
	return trace.IsBinaryMediaType(r.Header.Get("Content-Type"))
}

// ingestBatchRequests is how many decoded requests are applied to the
// window per ingestMu acquisition: large enough to amortize the lock,
// small enough that concurrent ingests interleave instead of serializing
// behind one slow client.
const ingestBatchRequests = 256

// handleIngest streams trace spans from the request body into the sliding
// window, running the online-training decision once the batch is in. The
// body is CSV by default; Content-Type: application/x-dcmodel-trace-v2
// selects the binary columnar codec. Decoding runs OUTSIDE ingestMu — a
// batch of requests is decoded from the (possibly slow) client stream,
// then applied under a short lock — so one stalled uploader cannot block
// concurrent ingests or the metrics scrape path.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	span := obs.SpanFrom(r.Context())
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)
	dec := trace.NewRequestReader(body, r.Header.Get("Content-Type"))
	var ingested int
	var decodeErr error
	stop := s.stage(span, "ingest.decode")
	batch := make([]trace.Request, 0, ingestBatchRequests)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		s.ingestMu.Lock()
		s.ingestLocked(batch)
		s.ingestMu.Unlock()
		ingested += len(batch)
		batch = batch[:0]
	}
	for {
		req, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			decodeErr = err
			break
		}
		batch = append(batch, req)
		if len(batch) == ingestBatchRequests {
			flush()
		}
	}
	// Everything decoded before a defect is kept, same as before the
	// batched path: the trailing partial batch flushes here.
	flush()
	stop()
	span.Annotate("ingested=%d", ingested)
	retrained, reason, trainErr := false, "", error(nil)
	if ingested > 0 {
		retrained, reason, trainErr = s.maybeRetrain(span)
	}

	n, capacity, total, _ := s.win.stats()
	resp := map[string]any{
		"ingested":  ingested,
		"window":    n,
		"capacity":  capacity,
		"total":     total,
		"retrained": retrained,
	}
	if reason != "" {
		resp["retrain_reason"] = reason
	}
	if trainErr != nil {
		resp["train_error"] = trainErr.Error()
	}
	code := http.StatusOK
	if decodeErr != nil {
		// Everything decoded before the defect was kept; report both.
		resp["error"] = decodeErr.Error()
		code = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// handleSynthesize generates a synthetic workload from a warm model.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
		return
	}
	n, err := queryInt(r, "n", 1000)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n < 1 || n > s.cfg.MaxSynth {
		httpError(w, http.StatusBadRequest, "n must be in [1, %d], got %d", s.cfg.MaxSynth, n)
		return
	}
	seed, err := querySeed(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	modelName := r.URL.Query().Get("model")
	if modelName == "" {
		modelName = "kooza"
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	if format != "csv" && format != "json" && format != "binary" {
		httpError(w, http.StatusBadRequest, "format must be csv, json or binary, got %q", format)
		return
	}
	doReplay := r.URL.Query().Get("replay") == "1"

	ms := s.model.Load()
	if ms == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}
	// The daemon serves bulk traces, so it rides the batch synthesis path
	// (byte-identical to the scalar one at the same seed).
	var synthesize func(int, *rand.Rand) (*trace.Trace, error)
	switch modelName {
	case "kooza":
		synthesize = ms.Kooza.SynthesizeBatch
	case "inbreadth":
		synthesize = ms.InBreadth.SynthesizeBatch
	case "indepth":
		synthesize = ms.InDepth.SynthesizeBatch
	default:
		httpError(w, http.StatusBadRequest, "model must be kooza, inbreadth or indepth, got %q", modelName)
		return
	}

	p := s.replayPlatform()
	span := obs.SpanFrom(r.Context())
	waitStop := s.stage(span, "queue.wait")
	s.enqueue(w, r, func(ctx context.Context) func(http.ResponseWriter) {
		waitStop()
		stop := s.stage(span, "synthesize")
		synth, err := synthesize(n, rand.New(rand.NewSource(seed)))
		stop()
		if err != nil {
			return func(w http.ResponseWriter) {
				httpError(w, http.StatusInternalServerError, "synthesize: %v", err)
			}
		}
		if doReplay && ctx.Err() == nil {
			stop = s.stage(span, "replay")
			synth, err = replay.Run(synth, p)
			stop()
			if err != nil {
				return func(w http.ResponseWriter) {
					httpError(w, http.StatusInternalServerError, "replay: %v", err)
				}
			}
		}
		return s.encodeTrace(span, synth, format)
	})
}

// encoded recycles response bodies between requests, so a warm daemon
// formats into memory it already owns instead of growing a fresh buffer
// per answer.
var encoded = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest response body kept for reuse; a
// MaxSynth-sized answer must not stay pinned in the pool.
const maxPooledBody = 4 << 20

// encodeTrace is the one encode step of the trace-returning handlers: it
// encodes tr as "csv", "json" or "binary" (trace-v2) into a pooled slice
// inside the encode stage and returns the response writer, which hands the
// slice back once the body is written. The body is built before anything is
// sent because enqueue decides the status only after the job ran.
func (s *Server) encodeTrace(span *obs.LiveSpan, tr *trace.Trace, format string) func(http.ResponseWriter) {
	stop := s.stage(span, "encode")
	pooled := encoded.Get().(*[]byte)
	body, contentType := (*pooled)[:0], "text/csv"
	var err error
	switch format {
	case "json":
		contentType = "application/json"
		body, err = trace.AppendJSON(body, tr)
	case "binary":
		contentType = trace.ContentTypeV2
		buf := bytes.NewBuffer(body)
		err = trace.WriteBinary(buf, tr)
		body = buf.Bytes()
	default:
		body = trace.AppendCSV(body, tr)
	}
	stop()
	release := func() {
		if cap(body) <= maxPooledBody {
			*pooled = body
			encoded.Put(pooled)
		}
	}
	if err != nil {
		release()
		return func(w http.ResponseWriter) {
			httpError(w, http.StatusInternalServerError, "encode: %v", err)
		}
	}
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", contentType)
		w.Write(body)
		release()
	}
}

// characterizeResponse is the JSON shape of /v1/characterize; the Scores
// entries use the stable field tags shared with RenderScores consumers.
type characterizeResponse struct {
	TrainedOn int                `json:"trained_on"`
	Window    int                `json:"window"`
	N         int                `json:"n"`
	Seed      int64              `json:"seed"`
	Scores    []crossexam.Scores `json:"scores"`
}

// handleCharacterize runs the Table 1 cross-examination of the warm
// models against the current window.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	seed, err := querySeed(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.model.Load() == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}
	winN, _, _, _ := s.win.stats()
	def := winN
	if def > 2000 {
		def = 2000
	}
	n, err := queryInt(r, "n", def)
	if err != nil || n < 1 || n > s.cfg.MaxSynth {
		httpError(w, http.StatusBadRequest, "n must be in [1, %d]", s.cfg.MaxSynth)
		return
	}
	span := obs.SpanFrom(r.Context())
	waitStop := s.stage(span, "queue.wait")
	s.enqueue(w, r, func(ctx context.Context) func(http.ResponseWriter) {
		waitStop()
		stop := s.stage(span, "crossexam")
		resp, err := s.characterize(n, seed)
		stop()
		if err != nil {
			return func(w http.ResponseWriter) {
				httpError(w, http.StatusInternalServerError, "characterize: %v", err)
			}
		}
		return func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}
	})
}

// characterize scores the served generation against the current window, at
// most once per input: the answer is a pure function of the generation and
// of charKey, so a request that finds the last answer under its own key
// takes it (waiting, if that evaluation is still running) instead of
// re-running the cross-examination. An ingest moves the window total, a
// retrain brings a new modelSet and /v1/faults a new scenario pointer, so
// each of them misses without anyone invalidating anything.
//
// The generation, the window position and the scenario are all read here,
// inside the job: read before the queue, a retrain landing in between would
// have generation g scored against — and reported as trained on — a window
// g+1 was trained on. The snapshot is taken after the total that keys it; a
// request ingested in between makes the answer fresher than its key, which
// no later request can observe, because the total only grows.
func (s *Server) characterize(n int, seed int64) (characterizeResponse, error) {
	ms := s.model.Load()
	p := s.replayPlatform()
	_, _, total, _ := s.win.stats()
	hit := true
	resp, err := ms.characterize(charKey{total: total, n: n, seed: seed, faults: p.Faults}, func() (characterizeResponse, error) {
		hit = false
		snap := s.win.snapshot()
		approaches := []crossexam.Approach{
			{Name: "in-breadth", Knobs: 3, Synthesize: ms.InBreadth.SynthesizeBatch, NumParams: ms.InBreadth.NumParams()},
			{Name: "in-depth", Knobs: 1, SelfTimed: true, Synthesize: ms.InDepth.SynthesizeBatch, NumParams: ms.InDepth.NumParams()},
			{Name: "KOOZA", Knobs: 5, Synthesize: ms.Kooza.SynthesizeBatch, NumParams: ms.Kooza.NumParams()},
		}
		// Workers=1: the daemon's parallelism budget belongs to the pool,
		// not to nested fan-outs inside one job.
		scores, err := crossexam.Evaluate(snap, approaches, n, p, crossexam.Options{Seed: seed, Workers: 1})
		return characterizeResponse{
			TrainedOn: ms.TrainedOn,
			Window:    snap.Len(),
			N:         n,
			Seed:      seed,
			Scores:    scores,
		}, err
	})
	if hit {
		s.metrics.charMemoHits.Add(1)
	}
	return resp, err
}

// handleReplay replays a streamed trace on the simulated platform and
// returns the re-timed trace. The body is negotiated like /v1/ingest (CSV
// default, Content-Type: application/x-dcmodel-trace-v2 for the binary
// codec) and the response echoes the request's format.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	span := obs.SpanFrom(r.Context())
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)
	binary := isBinaryTrace(r)
	stop := s.stage(span, "replay.decode")
	var tr *trace.Trace
	var err error
	if binary {
		tr, err = trace.ReadBinary(body)
	} else {
		tr, err = trace.ReadCSV(body)
	}
	stop()
	if err != nil {
		httpError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if tr.Len() == 0 {
		httpError(w, http.StatusBadRequest, "empty trace")
		return
	}
	span.Annotate("requests=%d", tr.Len())
	p := s.replayPlatform()
	waitStop := s.stage(span, "queue.wait")
	s.enqueue(w, r, func(ctx context.Context) func(http.ResponseWriter) {
		waitStop()
		stop := s.stage(span, "replay")
		timed, err := replay.Run(tr, p)
		stop()
		if err != nil {
			return func(w http.ResponseWriter) {
				httpError(w, http.StatusInternalServerError, "replay: %v", err)
			}
		}
		format := "csv"
		if binary {
			format = "binary"
		}
		return s.encodeTrace(span, timed, format)
	})
}

// whatifRequest is the JSON body of POST /v1/whatif: which warm model's
// analytical twin answers, plus the closed-form query itself. The query
// uses the twin package's stable snake_case field tags.
type whatifRequest struct {
	Model string     `json:"model"`
	Query twin.Query `json:"query"`
}

// whatifResponse is the JSON shape of /v1/whatif. Field order, tags and the
// deterministic twin arithmetic together make the response byte-stable for
// a given warm generation and query.
type whatifResponse struct {
	Model     string      `json:"model"`
	TrainedOn int         `json:"trained_on"`
	Query     twin.Query  `json:"query"`
	Answer    twin.Answer `json:"answer"`
}

// compileTwin lowers one warm model generation to its analytical twin on
// the daemon's configured platform hardware. Fault scenarios degrade only
// the replay platform, so the twin always answers about healthy hardware —
// what-if exploration stays meaningful while a degraded regime is armed.
func (s *Server) compileTwin(ms *modelSet, model string) (*twin.Twin, error) {
	return s.twinOn(ms, ownPlatform, s.cfg.Platform.NewServer, model)
}

// twinOn returns ms's model lowered onto one platform's hardware. A twin is
// a pure function of the generation, the model and the hardware, and
// queries only read it, so each (platform, model) is compiled once per
// generation, by whichever request asks first, and shared from then on.
func (s *Server) twinOn(ms *modelSet, platform string, newServer func() *hw.Server, model string) (*twin.Twin, error) {
	switch model {
	case "kooza", "inbreadth", "indepth":
	default:
		// Refused before the table is touched: a name nobody compiles must
		// not become a key.
		return nil, badRequestf("model must be kooza, inbreadth or indepth, got %q", model)
	}
	return ms.twin(twinKey{platform, model}, func() (*twin.Twin, error) {
		s.metrics.twinCompiles.Add(1)
		srv := newServer()
		if srv == nil {
			return nil, fmt.Errorf("platform NewServer returned nil: %w", errs.ErrBadConfig)
		}
		switch model {
		case "kooza":
			return twin.CompileKooza(ms.Kooza, srv, s.cfg.Platform.Servers)
		case "inbreadth":
			return twin.CompileInBreadth(ms.InBreadth, srv, s.cfg.Platform.Servers)
		default:
			return twin.CompileInDepth(ms.InDepth)
		}
	})
}

// handleWhatIf answers a closed-form what-if query against a warm model's
// analytical twin. Unlike synthesis, characterization and replay, it does
// NOT ride the bounded work queue: a twin evaluation is pure float
// arithmetic that completes in microseconds, so what-if exploration stays
// interactive even when the queue is saturated with simulations — that
// contrast is the point of the twin. Backpressure still applies to the
// expensive endpoints; this one only needs the closed/warm checks.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req whatifRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode query: %v", err)
		return
	}
	if req.Model == "" {
		req.Model = "kooza"
	}
	ms := s.model.Load()
	if ms == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}
	span := obs.SpanFrom(r.Context())
	stop := s.stage(span, "whatif.compile")
	tw, err := s.compileTwin(ms, req.Model)
	stop()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errs.ErrBadConfig) {
			code = http.StatusBadRequest
		}
		httpError(w, code, "compile twin: %v", err)
		return
	}
	stop = s.stage(span, "whatif.solve")
	ans, err := tw.WhatIf(req.Query)
	stop()
	if err != nil {
		// Twin queries fail only on invalid parameters; saturation is
		// reported in-band (answer.stable == false), never as an error.
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.Annotate("solver=%s stable=%t", ans.Solver, ans.Stable)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(whatifResponse{
		Model:     req.Model,
		TrainedOn: ms.TrainedOn,
		Query:     req.Query,
		Answer:    ans,
	})
}

// faultsResponse is the JSON shape of /v1/faults.
type faultsResponse struct {
	Armed    bool          `json:"armed"`
	Scenario *fault.Config `json:"scenario,omitempty"`
}

// handleFaults is the fault-scenario admin endpoint: GET reports the armed
// scenario, POST arms one (JSON fault.Config body, validated after the
// defaults are applied), DELETE disarms it. The scenario degrades the
// /v1/replay platform; synthesis and serving stay healthy regardless.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// Fall through to the common response below.
	case http.MethodPost:
		if s.closed.Load() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		var cfg fault.Config
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			httpError(w, http.StatusBadRequest, "decode scenario: %v", err)
			return
		}
		if err := s.ArmFaults(cfg); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case http.MethodDelete:
		s.DisarmFaults()
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET, POST or DELETE")
		return
	}
	armed := s.faults.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(faultsResponse{Armed: armed != nil, Scenario: armed})
}

// scrapeGauges feeds the gauges owned by other components (queue, window,
// drift accumulator) into the registry's bare-gauge tail at scrape time.
func (s *Server) scrapeGauges(set func(name string, v float64)) {
	n, capacity, total, spans := s.win.stats()
	s.ingestMu.Lock()
	driftTrans := s.drift.Transitions()
	s.ingestMu.Unlock()
	set("dcmodeld_queue_depth", float64(s.pool.Depth()))
	set("dcmodeld_queue_running", float64(s.pool.Running()))
	set("dcmodeld_window_requests", float64(n))
	set("dcmodeld_window_capacity", float64(capacity))
	set("dcmodeld_window_total", float64(total))
	set("dcmodeld_window_occupancy", float64(n)/float64(capacity))
	set("dcmodeld_drift_transitions", float64(driftTrans))
	for i, sub := range trace.Subsystems() {
		set(fmt.Sprintf("dcmodeld_window_spans{subsystem=%q}", sub.String()), float64(spans[i]))
	}
}

// handleMetrics renders the plain-text metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.reg.WriteText(w)
}

// handleTraces dumps the sampled span trees held by the trace ring as a
// JSON forest, oldest first — the live-tracing read path. A daemon
// without Obs (or with sampling disabled) reports enabled=false and an
// empty forest rather than a 404, so probes can distinguish "off" from
// "missing".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	dump := obs.TraceDump{Traces: []*obs.TreeDump{}}
	if s.spanner != nil {
		dump.Enabled = true
		dump.SampleEvery = s.spanner.SampleEvery()
		dump.Capacity = s.traces.Cap()
		dump.Started, dump.Sampled = s.spanner.Stats()
		for _, t := range s.traces.Snapshot() {
			if td := obs.DumpTree(t); td != nil {
				dump.Traces = append(dump.Traces, td)
			}
		}
		dump.Held = len(dump.Traces)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(dump)
}

// handleHealthz reports liveness and model warmth.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ms := s.model.Load()
	resp := map[string]any{"ok": true, "warm": ms != nil}
	if ms != nil {
		resp["trained_on"] = ms.TrainedOn
		resp["trained_at"] = ms.TrainedAt.UTC().Format(time.RFC3339Nano)
	}
	if open, until := s.BreakerOpen(); open {
		resp["retrain_breaker_open"] = true
		resp["retrain_breaker_until"] = until.UTC().Format(time.RFC3339Nano)
	}
	resp["faults_armed"] = s.faults.Load() != nil
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
