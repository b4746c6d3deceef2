package serve

import (
	"strconv"

	"dcmodel/internal/obs"
)

// The daemon's metrics live on an obs.Registry; this file only names the
// instruments and pins their registration order, which the registry
// renders verbatim — the order (and therefore every byte of /metrics) is
// the same as the daemon's original hand-rolled exposition, guarded by
// TestMetricsGolden.

// latencyBuckets are the request-latency histogram bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// metrics aggregates the daemon's instruments. All methods are safe for
// concurrent use.
type metrics struct {
	reg *obs.Registry

	requests *obs.LabeledCounter // finished requests by handler and status
	latency  *obs.HistogramVec   // request latency by handler

	rejected      *obs.Counter // 429s from a full queue
	deadline      *obs.Counter // requests cut off by the per-request deadline
	ingested      *obs.Counter // requests folded into the window
	retrains      *obs.Counter
	driftRetrains *obs.Counter
	staleRetrains *obs.Counter
	retrainErrors *obs.Counter
	breakerTrips  *obs.Counter

	provisions      *obs.Counter // provisioning searches completed (manual + auto)
	autoProvisions  *obs.Counter // drift-triggered auto-reprovision runs published
	provisionErrors *obs.Counter // auto-reprovision runs that failed

	twinCompiles  *obs.Counter // analytical twins compiled (once per generation, platform and model)
	charMemoHits  *obs.Counter // characterize requests answered by an earlier, identical evaluation
	provMemoHits  *obs.Counter // provision requests answered by an earlier, identical search
	synthMemoHits *obs.Counter // synthesize requests answered from an answer the generation kept

	retrainBusySkips *obs.Counter // automatic triggers that found a retrain in flight

	driftStat      *obs.Gauge
	driftP         *obs.Gauge
	modelTrainedOn *obs.Gauge

	// Per-stage wall/alloc accounting, populated only when cfg.Obs arms
	// the observability layer. Lazy: an idle family renders nothing, so
	// a daemon without Obs keeps the byte-pinned exposition.
	stageSeconds *obs.HistogramVec
	stageAlloc   *obs.HistogramVec
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requests: reg.LabeledCounter("dcmodeld_requests_total",
			"Finished HTTP requests by handler and status code.", "handler", "code"),
		latency: reg.HistogramVec("dcmodeld_request_seconds",
			"Request latency by handler.", "handler", latencyBuckets),
		rejected: reg.Counter("dcmodeld_queue_rejected_total",
			"Requests refused with 429 because the work queue was full."),
		deadline: reg.Counter("dcmodeld_deadline_exceeded_total",
			"Requests cut off by the per-request deadline."),
		ingested: reg.Counter("dcmodeld_ingested_requests_total",
			"Trace requests folded into the sliding window."),
		retrains: reg.Counter("dcmodeld_retrain_total",
			"Model retrains (all causes)."),
		driftRetrains: reg.Counter("dcmodeld_retrain_drift_total",
			"Retrains triggered by transition-row drift."),
		staleRetrains: reg.Counter("dcmodeld_retrain_stale_total",
			"Retrains triggered by model staleness."),
		retrainErrors: reg.Counter("dcmodeld_retrain_errors_total",
			"Retrain attempts that failed (previous model kept)."),
		breakerTrips: reg.Counter("dcmodeld_retrain_breaker_trips_total",
			"Times the retrain circuit breaker opened after consecutive failures."),
		provisions: reg.Counter("dcmodeld_provision_total",
			"Provisioning searches completed (POST /v1/provision and auto-reprovision)."),
		autoProvisions: reg.Counter("dcmodeld_provision_auto_total",
			"Drift-triggered auto-reprovision runs that published a plan."),
		provisionErrors: reg.Counter("dcmodeld_provision_errors_total",
			"Auto-reprovision runs that failed (last published plan kept)."),
		twinCompiles: reg.Counter("dcmodeld_twin_compiles_total",
			"Analytical twins compiled: one per model generation, platform and model."),
		charMemoHits: reg.Counter("dcmodeld_characterize_memo_hits_total",
			"Characterize requests answered from an identical evaluation (same generation, window, n, seed and fault scenario)."),
		provMemoHits: reg.Counter("dcmodeld_provision_memo_hits_total",
			"Provision requests answered from an identical search (same generation, window, model, request and fault scenario)."),
		synthMemoHits: reg.Counter("dcmodeld_synth_memo_hits_total",
			"Synthesize requests answered from a kept answer (same generation, model, n, seed, format, replay and, for a replay, fault scenario)."),
		retrainBusySkips: reg.Counter("dcmodeld_retrain_busy_skips_total",
			"Automatic retrain triggers that found a retrain in flight and left it to finish."),
		driftStat: reg.Gauge("dcmodeld_drift_stat",
			"Chi-square statistic of the last drift check."),
		driftP: reg.Gauge("dcmodeld_drift_p",
			"P-value of the last drift check."),
		modelTrainedOn: reg.Gauge("dcmodeld_model_trained_on",
			"Window requests the served model was trained on (0 = cold)."),
		stageSeconds: reg.HistogramVec("dcmodeld_stage_seconds",
			"Pipeline stage wall time.", "stage", obs.StageSecondsBuckets).Lazy(),
		stageAlloc: reg.HistogramVec("dcmodeld_stage_alloc_bytes",
			"Pipeline stage heap allocation (approximate, process-wide).", "stage", obs.StageAllocBuckets).Lazy(),
	}
	m.driftP.Set(1)
	return m
}

// observe records one finished HTTP request.
func (m *metrics) observe(handler string, code int, seconds float64) {
	m.requests.Add(1, handler, strconv.Itoa(code))
	m.latency.Observe(handler, seconds)
}

func (m *metrics) setDrift(stat, p float64) {
	m.driftStat.Set(stat)
	m.driftP.Set(p)
}
