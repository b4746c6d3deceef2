package main

// metricDef declares one metric; BENCHMARK.json lists the same names, units
// and directions (smoke_test.go holds the two together).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Where floor
	// is set, -aa and -compare also want the worsening to exceed it, in the
	// metric's unit: a quarter of a 0.3 s set-up is one hiccup of the
	// sandbox. BENCHMARK.json has no place for a floor; the driver holds
	// setup_s to the bound alone, over medians of ten runs.
	bound, floor float64
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one; workloadDef says what "work" and
// "op" are on each.
//
// Every bound is the widest the contract allows. The sandbox's cores change
// speed by a fifth from one second to the next and by a tenth from one run
// to the next (README.md, "A/A"), whatever the benchmark measures and however
// it summarises a run; a tighter bound would reject the parent against
// itself. Tail latency cannot be held even to this bound and is reported per
// layer (op.tail_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.5},
	{"work_per_s", "1/s", "higher", 0.25, 0},
	{"op_p50_ms", "ms", "lower", 0.25, 0},
	{"cpu_us_per_work", "us", "lower", 0.25, 0},
	{"peak_rss_mb", "MB", "lower", 0.25, 0},
}

// perLayer are the metrics of single layers, from the traced run. A layer
// the workload never enters reports 0 for what only a socket run can measure
// there (counts, shares, waits); the layer walk measures every layer on
// every workload's input.
var perLayer = func() []metricDef {
	low := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: "lower"})
		}
		return out
	}
	var m []metricDef
	add := func(ds ...[]metricDef) {
		for _, d := range ds {
			m = append(m, d...)
		}
	}
	add(
		// trace
		low("ns", "trace.decode_binary_ns_per_req", "trace.decode_csv_ns_per_req",
			"trace.encode_binary_ns_per_req", "trace.encode_csv_ns_per_req", "trace.encode_json_ns_per_req"),
		low("B", "trace.binary_bytes_per_req", "trace.csv_bytes_per_req"),
		// spec
		low("ns", "spec.generate_ns_per_req"),
		// serve, by the walk
		low("ns", "serve.ingest_apply_ns_per_req"),
		low("ms", "serve.retrain_ms"),
		low("us", "serve.handler_ingest_us", "serve.handler_synth_us",
			"serve.http_overhead_ingest_us", "serve.http_overhead_synth_us"),
		// serve, by the socket run and /metrics
		low("ms", "serve.retrain_post_ms"),
		low("us", "serve.queue_wait_us"),
	)
	for _, s := range append(append([]string(nil), ingestStages...), queryStages...) {
		add(low("share", "serve.stage."+s+"_share"))
	}
	add(
		low("share", "serve.unaccounted_share.ingest", "serve.unaccounted_share.query"),
		low("count", "serve.retrains", "serve.drift_retrains", "serve.retrain_errors", "serve.rejected_429"),
		[]metricDef{{name: "serve.flips", unit: "count", better: "higher"}},
		// par, markov
		low("ns", "par.pool_roundtrip_ns", "markov.stepn_ns_per_state", "markov.observe_ns_per_transition"),
		low("us", "markov.drift_us"),
		// the three model families
		low("ms", "kooza.train_ms", "inbreadth.train_ms", "indepth.train_ms"),
		low("ns", "kooza.synth_ns_per_req", "inbreadth.synth_ns_per_req", "indepth.synth_ns_per_req"),
		// replay, crossexam, twin, optimize
		low("ns", "replay.run_ns_per_req"),
		low("ms", "crossexam.evaluate_ms"),
		low("us", "twin.compile_us", "twin.whatif_us"),
		low("ms", "optimize.search_ms"),
		low("count", "optimize.twin_evals", "optimize.des_runs"),
		// gfs, queueing
		low("ns", "gfs.simulate_ns_per_req"),
		[]metricDef{{name: "queueing.des_events_per_s", unit: "1/s", better: "higher"}},
		// cluster
		low("us", "cluster.coord_ingest_us", "cluster.worker_ingest_us"),
		low("ns", "cluster.model_observe_ns_per_req", "cluster.synth_ns_per_req", "cluster.ring_key_ns"),
		low("us", "cluster.model_merge_us", "cluster.model_marshal_us", "cluster.model_unmarshal_us"),
		low("ms", "cluster.merge_ms", "cluster.final_merge_ms"),
		low("count", "cluster.merges", "cluster.epochs"),
		low("B", "cluster.heap_bytes_per_routed_req"),
		// obs
		low("ns", "obs.stage_pair_ns"),
		low("%", "obs.overhead_pct"),
		// the offline pipeline and its fidelity
		low("ns", "offline.crossexamine_ns_per_req", "offline.validate_ns_per_req"),
		low("%", "fidelity.latency_dev_pct", "fidelity.feature_dev_pct"),
		// how much of a handler's time the walked layers account for
		[]metricDef{
			{name: "walk.ingest_coverage", unit: "share", better: "higher"},
			{name: "walk.synth_coverage", unit: "share", better: "higher"},
		},
		// the primary operation and the reader beside a writer, as the
		// traced half-window saw them, and the load generator itself
		low("ms", "op.p50_ms", "op.tail_ms", "reader.p50_ms", "reader.tail_ms"),
		[]metricDef{
			{name: "reader.per_s", unit: "1/s", better: "higher"},
			{name: "traced.work_per_s", unit: "1/s", better: "higher"},
		},
		low("ms", "loadgen.lag_p99_ms"),
		low("count", "loadgen.over_limit"),
		[]metricDef{
			{name: "loadgen.samples.op", unit: "count", better: "higher"},
			{name: "loadgen.samples.reader", unit: "count", better: "higher"},
			{name: "loadgen.bodies_decoded", unit: "count", better: "higher"},
		},
		// the bottleneck-law self-check
		[]metricDef{
			{name: "twin.predicted_work_per_s", unit: "1/s", better: "higher"},
			{name: "twin.knee_work_per_s", unit: "1/s", better: "higher"},
		},
		low("%", "twin.prediction_err_pct"),
	)
	return m
}()

// exactPerLayer are the per-layer numbers that depend on the seed alone: a
// second run of the same code repeats them to the last digit (-aa checks it).
var exactPerLayer = []string{
	"fidelity.latency_dev_pct", "fidelity.feature_dev_pct",
	"optimize.twin_evals", "optimize.des_runs",
	"trace.binary_bytes_per_req", "trace.csv_bytes_per_req",
}

// unitOf is the declared unit of a metric, "" for an undeclared name.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// manifestMetric is one metric as BENCHMARK.json lists it; per-layer
// metrics carry no bound.
type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the length of the window the driver measures.
const runSeconds = 15

// manifest is BENCHMARK.json, built from the tables above so that the file
// and the code cannot drift: `go -C benchmark run . -manifest > BENCHMARK.json`.
func manifest() any {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []workloadEntry  `json:"workloads"`
		EndToEnd   []manifestMetric `json:"end_to_end"`
		PerLayer   []manifestMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}
