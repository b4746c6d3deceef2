package dcmodel

import (
	"dcmodel/internal/dapper"
	"dcmodel/internal/obs"
)

// Facade over the observation tooling: Dapper-style request tracing and
// the metrics and trace sinks of the serving daemon's observability layer.
type (
	// TraceTree is one request's assembled span tree.
	TraceTree = dapper.Tree
	// TraceRecorder receives finished span trees — the single tracing seam
	// shared by the GFS simulator (RunConfig.Recorder), the replay engine
	// (Platform.Recorder), the serving daemon (ServeConfig.Obs) and
	// RecordRequests. Collectors, bounded rings and sampling decorators all
	// implement or wrap it.
	TraceRecorder = dapper.Recorder
	// TraceCollector is the simplest TraceRecorder: it keeps every
	// recorded tree in memory (Trees returns them in record order).
	TraceCollector = dapper.Collector
	// TraceRing is a bounded TraceRecorder keeping the most recent trees,
	// evicting the oldest when full.
	TraceRing = obs.TraceRing
	// ObsOptions configures the serving daemon's observability layer
	// (ServeConfig.Obs): trace sampling rate, trace ring capacity, an
	// extra TraceRecorder tap, and the /debug/pprof/ mount.
	ObsOptions = obs.Options
	// Observer bundles a metrics registry and a TraceRecorder for
	// WithObserver; either half may be nil.
	Observer = obs.Observer
	// MetricsRegistry is a concurrency-safe metric registry rendered in
	// the Prometheus plain-text exposition format.
	MetricsRegistry = obs.Registry
)

// DefaultObsOptions returns the recommended daemon observability
// settings: 1-in-1024 trace sampling into a 128-tree ring, pprof off.
func DefaultObsOptions() ObsOptions { return obs.DefaultOptions() }

// NewTraceRing returns a bounded TraceRecorder holding up to capacity
// trees (minimum 1).
func NewTraceRing(capacity int) *TraceRing { return obs.NewTraceRing(capacity) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RecordRequests replays a workload through deterministic 1-in-sampleEvery
// head sampling and delivers each sampled request's span tree to rec,
// returning how many requests were seen and recorded:
//
//	var c dcmodel.TraceCollector
//	started, sampled, err := dcmodel.RecordRequests(tr, 1000, &c)
func RecordRequests(tr *Trace, sampleEvery int, rec TraceRecorder) (started, sampled int64, err error) {
	return dapper.RecordWorkload(tr, sampleEvery, rec)
}
