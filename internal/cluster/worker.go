package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dcmodel/internal/errs"
	"dcmodel/internal/obs"
	"dcmodel/internal/trace"
)

// Wire constants shared by coordinator and workers.
const (
	// ContentTypeModel tags a marshaled cluster model on the wire.
	ContentTypeModel = "application/x-dcmodel-model-v1"
	// GenerationHeader carries the merge generation of a replicated
	// model (coordinator -> worker) and of an installed replica
	// (worker -> clients).
	GenerationHeader = "X-Dcmodel-Generation"
	// maxModelBytes bounds a model blob accepted over the wire.
	maxModelBytes = 256 << 20
	// maxIngestBytes bounds one ingest body.
	maxIngestBytes = 1 << 30
)

// WorkerConfig configures one cluster worker (the chunkserver role).
type WorkerConfig struct {
	// Model is the shared quantization config; it must match the
	// coordinator's exactly or shard models will refuse to merge.
	Model ModelConfig
	// MaxInflight caps concurrent ingest bodies; excess requests get
	// 429 with Retry-After, same as the single-node daemon's full
	// queue.
	MaxInflight int
	// MaxSynth caps one /v1/synthesize response.
	MaxSynth int
}

// withDefaults fills zero fields.
func (c WorkerConfig) withDefaults() WorkerConfig {
	c.Model = c.Model.withDefaults()
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.MaxSynth == 0 {
		c.MaxSynth = 100000
	}
	return c
}

// installedModel is one immutable replicated global model.
type installedModel struct {
	model      *Model
	generation int64
}

// Worker is one cluster data node: it trains its shard of the request
// stream online and serves queries from the last replicated global
// model, so any node in the cluster answers /v1/synthesize and
// /v1/characterize identically.
type Worker struct {
	cfg WorkerConfig

	// mu serializes shard training, marshal and reset — the
	// markov.Accumulator concurrency contract.
	mu    sync.Mutex
	shard *Model

	// installed holds the replicated global model; replaced whole on
	// install, never mutated, so query paths read it lock-free.
	installed atomic.Pointer[installedModel]

	inflight atomic.Int64

	reg      *obs.Registry
	ingested *obs.Counter
	rejected *obs.Counter
	resets   *obs.Counter
	installs *obs.Counter
	queries  *obs.LabeledCounter
	mux      *http.ServeMux
}

// NewWorker builds a worker (zero config fields defaulted).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxInflight < 1 {
		return nil, fmt.Errorf("cluster: worker max inflight %d < 1: %w", cfg.MaxInflight, errs.ErrBadConfig)
	}
	shard, err := NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, shard: shard}
	w.reg = obs.NewRegistry()
	w.ingested = w.reg.Counter("dcmodel_cluster_worker_ingested_total", "Requests absorbed into the shard model.")
	w.rejected = w.reg.Counter("dcmodel_cluster_worker_rejected_total", "Ingest bodies rejected with 429 at the inflight cap.")
	w.resets = w.reg.Counter("dcmodel_cluster_worker_resets_total", "Shard resets (rejoin protocol).")
	w.installs = w.reg.Counter("dcmodel_cluster_worker_installs_total", "Replicated global models installed.")
	w.queries = w.reg.LabeledCounter("dcmodel_cluster_worker_queries_total", "Queries served from the installed replica.", "endpoint")
	w.reg.OnScrape(func(set func(name string, v float64)) {
		set("dcmodel_cluster_worker_inflight", float64(w.inflight.Load()))
		set("dcmodel_cluster_worker_shard_requests", float64(w.ShardRequests()))
		set("dcmodel_cluster_worker_generation", float64(w.Generation()))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", only(http.MethodPost, w.handleIngest))
	mux.HandleFunc("/v1/model", w.handleModel)
	mux.HandleFunc("/v1/reset", only(http.MethodPost, w.handleReset))
	mux.HandleFunc("/v1/synthesize", only(http.MethodGet, w.handleQuery("synthesize")))
	mux.HandleFunc("/v1/characterize", only(http.MethodGet, w.handleQuery("characterize")))
	mux.HandleFunc("/v1/stats", only(http.MethodGet, w.handleStats))
	mux.HandleFunc("/healthz", w.handleHealthz)
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) { w.reg.WriteText(rw) })
	w.mux = mux
	return w, nil
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler { return w.mux }

// ShardRequests returns how many requests the shard model has absorbed.
func (w *Worker) ShardRequests() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shard.Requests()
}

// Generation returns the merge generation of the installed replica (0
// before the first replication).
func (w *Worker) Generation() int64 {
	if im := w.installed.Load(); im != nil {
		return im.generation
	}
	return 0
}

// ingestScratch is what decoding one ingest body needs and nothing outlives:
// a reader for each codec and the slice the requests are gathered in, and on the
// coordinator the round of blocks (frames holds their bytes) and the
// trace-v2 encoding of a CSV round. Neither ingest handler keeps a request
// past its answer (a worker folds them into counts, the coordinator logs and
// forwards bytes), so all of it is recycled.
type ingestScratch struct {
	csv         *trace.SpanReader
	v2          *trace.BinarySpanReader
	batch       []trace.Request
	blocks      []block
	frames, enc []byte
}

var ingestScratches = sync.Pool{New: func() any {
	return &ingestScratch{csv: trace.NewSpanReader(nil), v2: trace.NewBinarySpanReader(nil)}
}}

// reader re-arms the scratch's reader for contentType on body.
func (s *ingestScratch) reader(body io.Reader, contentType string) trace.RequestReader {
	if trace.IsBinaryMediaType(contentType) {
		s.v2.Reuse(body)
		return s.v2
	}
	s.csv.Reuse(body)
	return s.csv
}

// release returns the scratch to the pool, holding on to no body and no
// request, and to no buffer grown by a body far past a routing round.
func (s *ingestScratch) release() {
	s.csv.Reuse(nil)
	s.v2.Reuse(nil)
	clear(s.batch)
	clear(s.blocks)
	s.batch, s.blocks, s.frames, s.enc = s.batch[:0], s.blocks[:0], s.frames[:0], s.enc[:0]
	if cap(s.batch) > 4*routeBatchSize || cap(s.frames)+cap(s.enc) > 4<<20 {
		*s = ingestScratch{csv: s.csv, v2: s.v2} // a round of writer-sized blocks takes about 1 MiB
	}
	ingestScratches.Put(s)
}

// handleIngest absorbs a CSV or trace-v2 body into the shard model. A body
// with a request that fails Request.Validate is refused whole with 400.
func (w *Worker) handleIngest(rw http.ResponseWriter, r *http.Request) {
	if n := w.inflight.Add(1); n > int64(w.cfg.MaxInflight) {
		w.inflight.Add(-1)
		w.rejected.Inc()
		rw.Header().Set("Retry-After", "1")
		httpError(rw, http.StatusTooManyRequests, "worker ingest at capacity")
		return
	}
	defer w.inflight.Add(-1)

	sc := ingestScratches.Get().(*ingestScratch)
	defer sc.release()
	dec := sc.reader(io.LimitReader(r.Body, maxIngestBytes), r.Header.Get("Content-Type"))
	for {
		req, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			httpError(rw, http.StatusBadRequest, "decode: %v", err)
			return
		}
		sc.batch = append(sc.batch, req)
	}
	w.mu.Lock()
	for i := range sc.batch {
		w.shard.Observe(sc.batch[i])
	}
	total := w.shard.Requests()
	w.mu.Unlock()
	w.ingested.Add(int64(len(sc.batch)))
	writeJSON(rw, http.StatusOK, map[string]any{"ingested": len(sc.batch), "shard_requests": total})
}

// handleModel serves the shard model (GET, coordinator merge pull) and
// installs a replicated global model (POST, coordinator push).
func (w *Worker) handleModel(rw http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.mu.Lock()
		blob, err := w.shard.MarshalBinary()
		w.mu.Unlock()
		if err != nil {
			httpError(rw, http.StatusInternalServerError, "marshal shard: %v", err)
			return
		}
		rw.Header().Set("Content-Type", ContentTypeModel)
		rw.Write(blob)
	case http.MethodPost:
		blob, err := io.ReadAll(io.LimitReader(r.Body, maxModelBytes+1))
		if err != nil {
			httpError(rw, http.StatusBadRequest, "read model: %v", err)
			return
		}
		if len(blob) > maxModelBytes {
			httpError(rw, http.StatusRequestEntityTooLarge, "model blob exceeds %d bytes", maxModelBytes)
			return
		}
		m, err := UnmarshalModel(blob)
		if err != nil {
			httpError(rw, http.StatusBadRequest, "unmarshal model: %v", err)
			return
		}
		gen, _ := strconv.ParseInt(r.Header.Get(GenerationHeader), 10, 64)
		w.installed.Store(&installedModel{model: m, generation: gen})
		w.installs.Inc()
		writeJSON(rw, http.StatusOK, map[string]any{"installed": true, "generation": gen, "requests": m.Requests()})
	default:
		httpError(rw, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// handleReset discards the shard model — the coordinator resets a
// rejoining worker before routing to it again so requests already
// re-replicated to the survivors are never double-counted.
func (w *Worker) handleReset(rw http.ResponseWriter, r *http.Request) {
	fresh, err := NewModel(w.cfg.Model)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, "reset: %v", err)
		return
	}
	w.mu.Lock()
	w.shard = fresh
	w.mu.Unlock()
	w.resets.Inc()
	writeJSON(rw, http.StatusOK, map[string]any{"reset": true})
}

// handleQuery answers /v1/synthesize and /v1/characterize from the installed
// replica, on the coordinator's query surface.
func (w *Worker) handleQuery(endpoint string) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		n, seed, format, err := synthParams(r, w.cfg.MaxSynth)
		if err != nil {
			httpError(rw, http.StatusBadRequest, "%v", err)
			return
		}
		im := w.installed.Load()
		if im == nil {
			httpError(rw, http.StatusServiceUnavailable, "%v: no replicated model installed yet", errs.ErrModelNotTrained)
			return
		}
		if answerQuery(rw, endpoint, im.model, im.generation, n, seed, format) {
			w.queries.Add(1, endpoint)
		}
	}
}

// answerQuery answers a synthesize or characterize query from m, the model
// of merge generation gen, and reports whether the answer is a 200. It is
// the one answer of a worker's replica and of the coordinator's merged model
// alike: output is deterministic in (model bytes, seed), so every node of a
// converged cluster answers identically.
func answerQuery(w http.ResponseWriter, endpoint string, m *Model, gen int64, n int, seed int64, format string) bool {
	if endpoint == "characterize" {
		w.Header().Set(GenerationHeader, strconv.FormatInt(gen, 10))
		writeJSON(w, http.StatusOK, m.Characterize())
		return true
	}
	tr, err := m.Synthesize(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return false
	}
	w.Header().Set(GenerationHeader, strconv.FormatInt(gen, 10))
	writeTrace(w, tr, format)
	return true
}

// WorkerStats is the worker's /v1/stats answer. The coordinator routes on
// none of it: a query goes to its key's ring owner among the live workers
// holding the coordinator's generation, as the coordinator last replicated it.
type WorkerStats struct {
	// QueueDepth is the ingest bodies in flight on the worker.
	QueueDepth    int64 `json:"queue_depth"`
	ShardRequests int64 `json:"shard_requests"`
	Generation    int64 `json:"generation"`
	Ingested      int64 `json:"ingested_total"`
	Rejected      int64 `json:"rejected_total"`
	Resets        int64 `json:"resets_total"`
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, WorkerStats{QueueDepth: w.inflight.Load(), ShardRequests: w.ShardRequests(), Generation: w.Generation(),
		Ingested: w.ingested.Value(), Rejected: w.rejected.Value(), Resets: w.resets.Value()})
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, map[string]any{
		"ok":   true,
		"warm": w.installed.Load() != nil,
	})
}

// only hands h the requests of one method and answers every other with 405.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			httpError(w, http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		h(w, r)
	}
}

// httpError writes a JSON error body, mirroring the serving daemon.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// synthParams parses the shared /v1/synthesize query surface.
func synthParams(r *http.Request, maxSynth int) (n int, seed int64, format string, err error) {
	n = 1000
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err = strconv.Atoi(v); err != nil {
			return 0, 0, "", fmt.Errorf("bad n %q", v)
		}
	}
	if n < 1 || n > maxSynth {
		return 0, 0, "", fmt.Errorf("n must be in [1, %d], got %d", maxSynth, n)
	}
	seed = 1
	if v := r.URL.Query().Get("seed"); v != "" {
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil || seed < 1 {
			return 0, 0, "", fmt.Errorf("bad seed %q: need a positive integer", v)
		}
	}
	format = r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	if format != "csv" && format != "json" && format != "binary" {
		return 0, 0, "", fmt.Errorf("format must be csv, json or binary, got %q", format)
	}
	return n, seed, format, nil
}

// writeTrace renders a synthesized trace in the requested format.
func writeTrace(w http.ResponseWriter, tr *trace.Trace, format string) {
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteJSON(w, tr)
	case "binary":
		w.Header().Set("Content-Type", trace.ContentTypeV2)
		trace.WriteBinary(w, tr)
	default:
		w.Header().Set("Content-Type", "text/csv")
		trace.WriteCSV(w, tr)
	}
}
