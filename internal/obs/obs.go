// Package obs is the unified observability substrate of the serving
// stack: a stdlib-only, concurrency-safe metrics registry with
// Prometheus-exposition rendering, a live Dapper-style span tracer with
// deterministic 1/N head sampling and ring-buffer collection, per-stage
// wall/alloc accounting, and the single place in the module allowed to
// import net/http/pprof.
//
// The package exists because per-stage latency attribution — not endpoint
// totals — is what makes a serving system tunable: hierarchical
// performance analysis attributes time level by level, and the paper's
// archetypal in-depth collection substrate (Dapper) does exactly that for
// request flows. internal/serve builds its /metrics and /v1/traces
// endpoints on this package; the facade exposes it through
// dcmodel.ServeConfig.Obs and the WithObserver training option.
//
// Three layers:
//
//   - Registry: named metric families (Counter, Gauge, LabeledCounter,
//     HistogramVec) registered once and rendered in registration order,
//     byte-compatible with the hand-rolled exposition it replaced.
//   - Spanner / TraceRing: a concurrency-safe live tracer that
//     head-samples 1 of every N requests, builds each sampled request's
//     dapper span tree, and delivers finished trees to any
//     dapper.Recorder; TraceRing keeps the most recent trees for
//     GET /v1/traces, and Tee composes recorders.
//   - Stage / RegisterPprof: per-stage wall-clock and allocation
//     accounting surfaced as histograms, and the /debug/pprof/ mount.
package obs
