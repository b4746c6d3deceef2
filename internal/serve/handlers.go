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
	errorAnswer(code, format, args...).write(w)
}

// answer is an encoded response: the status, the content type and the body
// that go with it. A queued job returns one for enqueue to write, and the
// generation's cache keeps one where a response outlives the request that
// computed it.
type answer struct {
	code        int
	contentType string
	body        []byte
}

func (a answer) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", a.contentType)
	w.WriteHeader(a.code)
	w.Write(a.body)
}

// jsonAnswer is v as json.Encoder writes it, answered with code.
func jsonAnswer(code int, v any) answer {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v)
	return answer{code: code, contentType: "application/json", body: b.Bytes()}
}

// errorAnswer is the answer httpError writes.
func errorAnswer(code int, format string, args ...any) answer {
	return jsonAnswer(code, map[string]string{"error": fmt.Sprintf(format, args...)})
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

// enqueue admits job to the bounded work queue, waits for it under the
// per-request deadline and writes its answer. It owns the full backpressure
// contract: 429 + Retry-After on a full queue, 503 while draining, 504 on
// deadline. A job reports false when it finds its context done, which is
// answered like a deadline passed in the queue.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, job func(ctx context.Context) (answer, bool)) {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	done := make(chan answer, 1)
	admitted := s.pool.TrySubmit(func() {
		// A job whose client gave up (or whose deadline passed) while it was
		// queued is skipped; a zero answer stands for no answer.
		var a answer
		if ctx.Err() == nil {
			if ans, ok := job(ctx); ok {
				a = ans
			}
		}
		done <- a
	})
	if !admitted {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "work queue full (%d deep)", s.cfg.QueueDepth)
		return
	}
	if s.onAdmit != nil {
		s.onAdmit()
	}
	select {
	case a := <-done:
		if a.code != 0 {
			a.write(w)
			return
		}
	case <-ctx.Done():
	}
	s.metrics.deadline.Add(1)
	httpError(w, http.StatusGatewayTimeout, "deadline exceeded")
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

// ingestScratch is what decoding one ingest body needs and nothing outlives:
// a reader for each codec and the batch the decoded requests gather in. The
// window copies every request it takes, so no decoded span outlives the
// body and all of it is recycled.
type ingestScratch struct {
	csv   *trace.SpanReader
	v2    *trace.BinarySpanReader
	batch []trace.Request
}

var ingestScratches = sync.Pool{New: func() any {
	return &ingestScratch{
		csv:   trace.NewSpanReader(nil),
		v2:    trace.NewBinarySpanReader(nil),
		batch: make([]trace.Request, 0, ingestBatchRequests),
	}
}}

// reader re-arms the scratch's reader for contentType on body.
func (sc *ingestScratch) reader(body io.Reader, contentType string) trace.RequestReader {
	if trace.IsBinaryMediaType(contentType) {
		sc.v2.Reuse(body)
		return sc.v2
	}
	sc.csv.Reuse(body)
	return sc.csv
}

// release returns the scratch to the pool, holding on to no body and no
// request.
func (sc *ingestScratch) release() {
	sc.csv.Reuse(nil)
	sc.v2.Reuse(nil)
	clear(sc.batch[:cap(sc.batch)]) // flush left it empty, not cleared
	sc.batch = sc.batch[:0]
	ingestScratches.Put(sc)
}

// handleIngest streams trace spans from the request body into the sliding
// window, running the online-training decision once the batch is in. The
// body is CSV by default; Content-Type: application/x-dcmodel-trace-v2
// selects the binary columnar codec. Decoding runs OUTSIDE ingestMu — a
// batch of requests is decoded from the (possibly slow) client stream,
// then applied under a short lock — so one stalled uploader cannot block
// concurrent ingests or the metrics scrape path. The body is decoded through
// a pooled reader, so steady-state ingest allocates no span.
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
	sc := ingestScratches.Get().(*ingestScratch)
	defer sc.release()
	dec := sc.reader(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes), r.Header.Get("Content-Type"))
	var ingested int
	var decodeErr error
	stop := s.stage(span, "ingest.decode")
	flush := func() {
		if len(sc.batch) == 0 {
			return
		}
		s.ingestMu.Lock()
		s.ingestLocked(sc.batch)
		s.ingestMu.Unlock()
		ingested += len(sc.batch)
		sc.batch = sc.batch[:0]
	}
	for {
		req, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			// A request no trainer would take is refused like a defect of
			// the encoding: kept in the window, it would fail every retrain
			// until it aged out.
			err = req.Validate()
		}
		if err != nil {
			decodeErr = err
			break
		}
		sc.batch = append(sc.batch, req)
		if len(sc.batch) == ingestBatchRequests {
			flush()
		}
	}
	// Everything decoded before a defect is kept, same as before the
	// batched path: the trailing partial batch flushes here.
	flush()
	stop()
	if span != nil { // boxing a count past 255 allocates, traced or not
		span.Annotate("ingested=%d", ingested)
	}
	resp := ingestResponse{Ingested: ingested}
	if ingested > 0 {
		var trainErr error
		resp.Retrained, resp.RetrainReason, trainErr = s.maybeRetrain(span)
		if trainErr != nil {
			resp.TrainError = trainErr.Error()
		}
	}
	resp.Window, resp.Capacity, resp.Total, _ = s.win.stats()
	code := http.StatusOK
	if decodeErr != nil {
		// Everything decoded before the defect was kept; report both.
		resp.Error = decodeErr.Error()
		code = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(&resp)
}

// ingestResponse is the answer of /v1/ingest. Its fields are in name order,
// the order encoding/json gives the keys of a map.
type ingestResponse struct {
	Capacity      int    `json:"capacity"`
	Error         string `json:"error,omitempty"`
	Ingested      int    `json:"ingested"`
	RetrainReason string `json:"retrain_reason,omitempty"`
	Retrained     bool   `json:"retrained"`
	Total         int64  `json:"total"`
	TrainError    string `json:"train_error,omitempty"`
	Window        int    `json:"window"`
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
	if err := checkModel(modelName); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := csvFormat
	if name := r.URL.Query().Get("format"); name != "" {
		var ok bool
		if format, ok = formatNamed(name); !ok {
			httpError(w, http.StatusBadRequest, "format must be csv, json or binary, got %q", name)
			return
		}
	}
	q := synthQuery{model: modelName, n: n, seed: seed, format: format, replay: r.URL.Query().Get("replay") == "1"}

	ms := s.model.Load()
	if ms == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}

	p := s.replayPlatform()
	span := obs.SpanFrom(r.Context())
	waitStop := s.stage(span, "queue.wait")
	s.enqueue(w, r, func(ctx context.Context) (answer, bool) {
		waitStop()
		return s.synthesize(ctx, span, ms, p, q)
	})
}

// checkModel refuses a model name the daemon does not serve. Every handler
// that takes a model name asks it first, warm or cold, so that a name no
// retrain can make valid is a 400 and never a 503 worth retrying.
func checkModel(name string) error {
	switch name {
	case "kooza", "inbreadth", "indepth":
		return nil
	}
	return badRequestf("model must be kooza, inbreadth or indepth, got %q", name)
}

// synthQuery is one /v1/synthesize query: what to synthesize, the format of
// the answer and whether to replay the trace first.
type synthQuery struct {
	model  string
	n      int
	seed   int64
	format int
	replay bool
}

// synthesize is the queued job of /v1/synthesize: it answers q from
// generation ms, replaying on p. Each answer is one entry of the generation's
// cache, under its answerKey: the first ask synthesizes, replays if the query
// asks for it and encodes, single-flight, and every later ask reads the kept
// bytes. A failure is kept the same way, since it would fail again. A job
// whose context is done by the time its answer is computed answers 504 and
// keeps nothing; requests waiting on that computation still get the answer.
func (s *Server) synthesize(ctx context.Context, span *obs.LiveSpan, ms *modelSet, p replay.Platform, q synthQuery) (answer, bool) {
	synthesize, err := s.synthesizer(ms, span, q.model)
	if err != nil {
		return errorAnswer(http.StatusInternalServerError, "train %s: %v", q.model, err), true
	}
	key := answerKey{synthQuery: q}
	if q.replay {
		key.faults = p.Faults
	}
	// A hit is read inside the synthesize stage; a miss replays and encodes
	// in stages of their own.
	stop := s.stage(span, "synthesize")
	defer func() { stop() }()
	ans, hit := ms.cache.answer(key, func() (answer, bool) {
		tr, err := synthesize(q.n, rand.New(rand.NewSource(q.seed)))
		if err != nil {
			return errorAnswer(http.StatusInternalServerError, "synthesize: %v", err), true
		}
		if q.replay {
			stop()
			stop = s.stage(span, "replay")
			if tr, err = replay.Run(tr, p); err != nil {
				return errorAnswer(http.StatusInternalServerError, "replay: %v", err), true
			}
		}
		stop()
		stop = s.stage(span, "encode")
		if s.onEncode != nil {
			s.onEncode(q)
		}
		return encodeExact(tr, q.format), ctx.Err() == nil
	})
	if hit {
		s.metrics.synthMemoHits.Add(1)
	}
	return ans, ctx.Err() == nil
}

// synthesizer returns the batch synthesis of ms's named model, training a
// comparison model if this is the first request of the generation to ask
// for it. The what-if and provision paths call it for that training alone,
// so that it is timed as a stage of its own ahead of theirs.
func (s *Server) synthesizer(ms *modelSet, span *obs.LiveSpan, model string) (func(int, *rand.Rand) (*trace.Trace, error), error) {
	switch model {
	case "inbreadth":
		ib, err := s.inBreadth(ms, span)
		if err != nil {
			return nil, err
		}
		return ib.Synthesize, nil
	case "indepth":
		id, err := s.inDepth(ms, span)
		if err != nil {
			return nil, err
		}
		return id.Synthesize, nil
	}
	return ms.Kooza.Synthesize, nil
}

// The encodings a trace answer comes in: they index formatNames and
// contentTypes.
const (
	csvFormat = iota
	jsonFormat
	binaryFormat
	numFormats
)

// formatNames and contentTypes are each format's query name and media type.
var (
	formatNames  = [numFormats]string{"csv", "json", "binary"}
	contentTypes = [numFormats]string{"text/csv", "application/json", trace.ContentTypeV2}
)

// formatNamed is the format a query names, if it names one.
func formatNamed(name string) (int, bool) {
	for f, n := range formatNames {
		if n == name {
			return f, true
		}
	}
	return 0, false
}

// appendTrace appends tr encoded in format to dst.
func appendTrace(dst []byte, tr *trace.Trace, format int) ([]byte, error) {
	switch format {
	case jsonFormat:
		return trace.AppendJSON(dst, tr)
	case binaryFormat:
		return trace.AppendBinary(dst, tr.Requests)
	}
	return trace.AppendCSV(dst, tr), nil
}

// encoded recycles the buffers answers are encoded into, so a warm daemon
// formats into memory it already owns instead of growing a fresh buffer per
// answer. A buffer grown past maxPooledBody is dropped: a MaxSynth-sized
// answer must not stay pinned in the pool.
var encoded = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 4 << 20

// encodeExact is tr encoded in format as a 200 answer whose body is a copy
// exactly the size of the encoding: what the cache keeps.
func encodeExact(tr *trace.Trace, format int) answer {
	pooled := encoded.Get().(*[]byte)
	body, err := appendTrace((*pooled)[:0], tr, format)
	exact := bytes.Clone(body)
	if cap(body) <= maxPooledBody {
		*pooled = body
		encoded.Put(pooled)
	}
	if err != nil {
		return errorAnswer(http.StatusInternalServerError, "encode: %v", err)
	}
	return answer{code: http.StatusOK, contentType: contentTypes[format], body: exact}
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
	s.enqueue(w, r, func(ctx context.Context) (answer, bool) {
		waitStop()
		return s.characterize(span, n, seed), true
	})
}

// characterize scores the served generation against the current window, at
// most once per input: the answer is a pure function of the generation and
// of charKey, so a request that finds the last answer under its own key
// takes its bytes (waiting, if that evaluation is still running) instead of
// re-running the cross-examination. An ingest moves the window total, a
// retrain brings a new modelSet and /v1/faults a new scenario pointer, so
// each of them misses without anyone invalidating anything.
//
// The generation, the window position and the scenario are all read here,
// inside the job: read before the queue, a retrain landing in between would
// have generation g scored against — and reported as trained on — a window
// g+1 was trained on. The snapshot is taken after the total that keys it; a
// request ingested in between makes the answer fresher than its key, which
// no later request can observe, because the total only grows. The
// generation's comparison models are trained first, if nobody has yet, in
// stages of their own ahead of the crossexam stage.
func (s *Server) characterize(span *obs.LiveSpan, n int, seed int64) answer {
	ms := s.model.Load()
	ib, err := s.inBreadth(ms, span)
	if err != nil {
		return errorAnswer(http.StatusInternalServerError, "characterize: train inbreadth: %v", err)
	}
	id, err := s.inDepth(ms, span)
	if err != nil {
		return errorAnswer(http.StatusInternalServerError, "characterize: train indepth: %v", err)
	}
	defer s.stage(span, "crossexam")()
	p := s.replayPlatform()
	_, _, total, _ := s.win.stats()
	key := charKey{total: total, n: n, seed: seed, faults: p.Faults}
	ans, hit := ms.cache.answer(key, func() (answer, bool) {
		snap := s.win.snapshot()
		approaches := []crossexam.Approach{
			{Name: "in-breadth", Knobs: 3, Synthesize: ib.Synthesize, NumParams: ib.NumParams()},
			{Name: "in-depth", Knobs: 1, SelfTimed: true, Synthesize: id.Synthesize, NumParams: id.NumParams()},
			{Name: "KOOZA", Knobs: 5, Synthesize: ms.Kooza.Synthesize, NumParams: ms.Kooza.NumParams()},
		}
		// Workers=1: the daemon's parallelism budget belongs to the pool,
		// not to nested fan-outs inside one job.
		scores, err := crossexam.Evaluate(snap, approaches, n, p, crossexam.Options{Seed: seed, Workers: 1})
		if err != nil {
			// Kept like an answer: the evaluation would fail again.
			return errorAnswer(http.StatusInternalServerError, "characterize: %v", err), true
		}
		return jsonAnswer(http.StatusOK, characterizeResponse{
			TrainedOn: ms.TrainedOn,
			Window:    snap.Len(),
			N:         n,
			Seed:      seed,
			Scores:    scores,
		}), true
	})
	if hit {
		s.metrics.charMemoHits.Add(1)
	}
	return ans
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
	s.enqueue(w, r, func(ctx context.Context) (answer, bool) {
		waitStop()
		stop := s.stage(span, "replay")
		timed, err := replay.Run(tr, p)
		stop()
		if err != nil {
			return errorAnswer(http.StatusInternalServerError, "replay: %v", err), true
		}
		format := csvFormat
		if binary {
			format = binaryFormat
		}
		defer s.stage(span, "encode")()
		return encodeExact(timed, format), true
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

// twinOn returns ms's model lowered onto one platform's hardware. A twin is
// a pure function of the generation, the model and the hardware, and
// queries only read it, so each (platform, model) is compiled once per
// generation, by whichever request asks first, and shared from then on.
func (s *Server) twinOn(ms *modelSet, platform string, newServer func() *hw.Server, model string) (*twin.Twin, error) {
	// Refused before the table is touched: a name nobody compiles must not
	// become a key.
	if err := checkModel(model); err != nil {
		return nil, err
	}
	return built(&ms.cache, twinKey{platform, model}, func() (*twin.Twin, error) {
		s.metrics.twinCompiles.Add(1)
		srv := newServer()
		if srv == nil {
			return nil, fmt.Errorf("platform NewServer returned nil: %w", errs.ErrBadConfig)
		}
		switch model {
		case "kooza":
			return twin.CompileKooza(ms.Kooza, srv, s.cfg.Platform.Servers)
		case "inbreadth":
			ib, err := s.inBreadth(ms, nil)
			if err != nil {
				return nil, fmt.Errorf("train inbreadth: %w", err)
			}
			return twin.CompileInBreadth(ib, srv, s.cfg.Platform.Servers)
		default:
			id, err := s.inDepth(ms, nil)
			if err != nil {
				return nil, fmt.Errorf("train indepth: %w", err)
			}
			return twin.CompileInDepth(id)
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
	if err := checkModel(req.Model); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ms := s.model.Load()
	if ms == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}
	span := obs.SpanFrom(r.Context())
	// A comparison model nobody asked for yet is trained here, outside the
	// work queue like the rest of a what-if, in its own stage.
	if _, err := s.synthesizer(ms, span, req.Model); err != nil {
		httpError(w, http.StatusInternalServerError, "train %s: %v", req.Model, err)
		return
	}
	// The twin of the daemon's own hardware. Fault scenarios degrade only
	// the replay platform, so the twin always answers about healthy hardware
	// — what-if exploration stays meaningful while a degraded regime is armed.
	stop := s.stage(span, "whatif.compile")
	tw, err := s.twinOn(ms, ownPlatform, s.cfg.Platform.NewServer, req.Model)
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
// JSON forest, oldest first — the live-tracing read path (obs.DumpTraces).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(obs.DumpTraces(s.spanner, s.traces))
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
