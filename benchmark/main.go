// Command benchmark is the repo's perf record: it starts the real dcmodeld
// and the real 3-worker cluster in process, on real loopback sockets, drives
// five workloads against them and the offline cross-examination pipeline,
// checks every output, and prints end-to-end metrics (tracing off) or
// per-layer metrics (tracing on) by name, with units. README.md in this
// directory says what each workload and metric is for.
//
//	go -C benchmark run .                 every workload, end-to-end metrics
//	go -C benchmark run . -trace 1        every workload, per-layer metrics + span files
//	go -C benchmark run . -aa 2           A/A: two sets of runs must agree within the bounds
//	go -C benchmark run . -compare p1.json c1.json p2.json c2.json ...
//	bash benchmark/run.sh --workload query-mix --seed 7 --seconds 10 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload in this
// process, one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line: these
// four keys and no other.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is the line a single-workload run prints before its result: the
// sample counts behind the timings and what else the run has to say.
type detail struct {
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes"`
}

// report is one workload's run: result and detail, as -json files hold them.
type report struct {
	result
	detail
}

func main() {
	var (
		workloadName  = flag.String("workload", "", "run this one workload in this process and print one JSON result line")
		seed          = flag.Int64("seed", 1, "workload seed: the only source of variation in the inputs")
		seconds       = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace         = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
		jsonOut       = flag.String("json", "", "also write the run (stamp, every metric, sample counts) to this file")
		aa            = flag.Int("aa", 0, "run the full set this many times, untraced and traced, and compare the sets")
		compare       = flag.Bool("compare", false, "compare -json files given as parent change parent change ...")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	flag.Parse()
	if *seconds <= 0 || *seed < 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("-seconds must be positive, -seed not negative, -trace 0 or 1"))
	}
	run := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: 1, setupRepeats: 3, outDir: filepath.Join(benchDir(), "out")}
	switch {
	case *printManifest:
		data, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *compare:
		os.Exit(compareFiles(flag.Args()))
	case *workloadName != "":
		os.Exit(runOne(*workloadName, run))
	case *aa > 0:
		os.Exit(runAA(*aa, run))
	default:
		set, ok := runSet(run)
		printSet(os.Stdout, set)
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, set); err != nil {
				fatal(err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

type runConfig struct {
	seed    int64 // as given: 0 is a seed like any other
	seconds float64
	traced  bool
	// The rest is fixed for every run on record; only the smoke test sets
	// other values. scale multiplies the fixed-work sizes (cluster epoch,
	// offline unit, walked window). setupRepeats is how often an untraced
	// run sets the workload up: setup_s is the median, and the first
	// instance is the one measured. outDir receives the span files.
	scale        float64
	setupRepeats int
	outDir       string
}

// inputSeed is the seed the inputs are generated from. spec.Compile and the
// daemon's seed= parameter want a positive one, so it is never 0.
func (c runConfig) inputSeed() int64 { return c.seed + 1 }

// runOne is the single-workload mode. The human-readable table goes to
// standard error; standard output ends with the detail line and then the
// result object. The exit code is non-zero when an output check failed (the
// result says which) or the run is invalid (no result is printed).
func runOne(name string, cfg runConfig) int {
	def, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var rep *report
	var err error
	if cfg.traced {
		rep, err = measureLayers(def, cfg)
	} else {
		rep, err = measureEndToEnd(def, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printReport(os.Stderr, def, rep)
	for _, line := range []any{rep.detail, rep.result} {
		data, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// timedSetup builds the workload and sets it up, untraced.
func timedSetup(def workloadDef, cfg runConfig) (workload, float64, error) {
	w := def.build(cfg.inputSeed(), cfg.scale)
	t0 := time.Now()
	if err := w.setup(false); err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// measureEndToEnd is the untraced run: set up, one measured window, every
// end-to-end metric. The set-ups that only add samples to setup_s run after
// the window and after VmHWM is read, so peak_rss_mb holds one instance of
// the workload and none of their garbage.
func measureEndToEnd(def workloadDef, cfg runConfig) (*report, error) {
	w, first, err := timedSetup(def, cfg)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	win, err := w.measure(time.Duration(cfg.seconds*float64(time.Second)), nil)
	cpu := cpuSeconds() - cpu0
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if win.work == 0 || len(win.op) == 0 {
		return nil, fmt.Errorf("no work completed (%v)", win.firstErr)
	}
	peak := peakRSSMB()
	setups := []float64{first}
	for len(setups) < cfg.setupRepeats {
		again, s, err := timedSetup(def, cfg)
		if err != nil {
			return nil, err
		}
		if err := again.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		setups = append(setups, s)
	}
	op := sorted(win.op)
	rep := &report{
		result: result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]value{}},
		detail: detail{Samples: map[string]int{"op": len(op), "reader": len(win.reader), "setup": len(setups)}},
	}
	if win.firstErr != nil {
		rep.Notes = append(rep.Notes, "first failure: "+win.firstErr.Error())
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("op p%g = %.6g ms (reported per layer, as op.tail_ms)", def.tail, percentile(op, def.tail)))
	for _, k := range []string{"serve.retrains", "serve.drift_retrains", "serve.flips", "cluster.epochs", "cluster.merges", "loadgen.over_limit", "loadgen.bodies_decoded"} {
		if v, ok := win.layer[k]; ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s = %g", k, v))
		}
	}
	for name, v := range map[string]float64{
		"setup_s":         median(setups),
		"work_per_s":      win.rate,
		"op_p50_ms":       percentile(op, 50),
		"cpu_us_per_work": cpu * 1e6 / win.work,
		"peak_rss_mb":     peak,
	} {
		rep.Metrics[name] = value{v, unitOf(endToEnd, name)}
	}
	return rep, nil
}

// measureLayers is the traced run: half a window untraced and half a window
// with serve.Config.Obs armed and a client span per operation (their
// difference is the tracing overhead), /metrics scraped around the traced
// half, then the layer walk on the workload's input and the bottleneck-law
// self-check. Spans are written out at the end.
func measureLayers(def workloadDef, cfg runConfig) (*report, error) {
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	// once runs half a window on a fresh instance: untraced without a
	// recorder, else with Obs armed, client spans and /metrics scraped around
	// the half.
	once := func(rec *spanRecorder) (*window, workload, map[string]float64, error) {
		w := def.build(cfg.inputSeed(), cfg.scale)
		if err := w.setup(rec != nil); err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		var before, stages map[string]float64
		var err error
		if rec != nil {
			if before, err = scrapeDaemon(w); err != nil {
				return nil, nil, nil, err
			}
		}
		win, err := w.measure(half, rec)
		if err == nil && rec != nil {
			var after map[string]float64
			if after, err = scrapeDaemon(w); err == nil {
				stages, err = serveLayer(before, after)
			}
		}
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		return win, w, stages, err
	}
	plain, _, _, err := once(nil)
	if err != nil {
		return nil, err
	}
	rec := newSpanRecorder()
	win, w, stages, err := once(rec)
	if err != nil {
		return nil, err
	}
	layer, err := walkLayers(rec, w.walkInput(), cfg.inputSeed(), cfg.scale)
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{win.layer, stages} {
		for k, v := range m {
			layer[k] = v
		}
	}
	res := &report{
		result: result{Correct: plain.failed+win.failed == 0, Attempted: plain.attempted + win.attempted, Failed: plain.failed + win.failed, Metrics: map[string]value{}},
		detail: detail{Samples: map[string]int{"op": len(win.op), "reader": len(win.reader)}},
	}
	for _, x := range []*window{plain, win} {
		if x.firstErr != nil {
			res.Notes = append(res.Notes, "first failure: "+x.firstErr.Error())
		}
	}
	op, reader, lag := sorted(win.op), sorted(win.reader), sorted(win.lag)
	layer["op.p50_ms"] = percentile(op, 50)
	layer["op.tail_ms"] = percentile(op, def.tail)
	if q := qualifyingTail(len(op)); q < def.tail {
		res.Notes = append(res.Notes, fmt.Sprintf("op.tail_ms is p%g but only p%g has ten samples beyond it (%d samples)", def.tail, q, len(op)))
	}
	layer["reader.p50_ms"] = percentile(reader, 50)
	layer["reader.tail_ms"] = percentile(reader, qualifyingTail(len(reader)))
	layer["reader.per_s"] = win.readerRate
	layer["loadgen.lag_p99_ms"] = percentile(lag, 99)
	layer["loadgen.samples.op"] = float64(len(win.op))
	layer["loadgen.samples.reader"] = float64(len(reader))
	layer["traced.work_per_s"] = win.rate
	if len(reader) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("reader.tail_ms is p%g of %d samples", qualifyingTail(len(reader)), len(reader)))
	}
	if layer["loadgen.lag_p99_ms"] > 5 {
		res.Notes = append(res.Notes, fmt.Sprintf("open-loop sends ran late: lag p99 %.1f ms > 5 ms", layer["loadgen.lag_p99_ms"]))
	}
	if def.name != "offline-crossexam" && plain.rate > 0 {
		// Same code, same inputs, Obs and spans on or off.
		layer["obs.overhead_pct"] = 100 * (1 - win.rate/plain.rate)
	}
	stations, customers := w.demand(layer)
	predicted, knee, bottleneck, err := predictRate(stations, customers)
	if err != nil {
		return nil, fmt.Errorf("self-check: %w", err)
	}
	layer["twin.predicted_work_per_s"] = predicted
	layer["twin.knee_work_per_s"] = knee
	layer["twin.prediction_err_pct"] = 100 * (predicted - plain.rate) / plain.rate
	res.Notes = append(res.Notes, fmt.Sprintf("bottleneck law: %d customer(s), bottleneck %s, predicted %.4g/s against %.4g/s measured untraced", customers, bottleneck, predicted, plain.rate))

	for _, m := range perLayer {
		v := layer[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	for name := range layer {
		if unitOf(perLayer, name) == "" {
			return nil, fmt.Errorf("per-layer number %s is not a declared metric", name)
		}
	}
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names[:min(len(names), 8)] {
		res.Notes = append(res.Notes, fmt.Sprintf("span self time: %-26s %8.1f ms", name, self[name].Seconds()*1e3))
	}
	path, err := rec.write(cfg.outDir, def.name)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Notes = append(res.Notes, "spans written to "+path)
	return res, nil
}

// scrapeDaemon reads the workload's daemon /metrics, nil without a daemon.
func scrapeDaemon(w workload) (map[string]float64, error) {
	if url := w.daemonURL(); url != "" {
		return scrape(url)
	}
	return nil, nil
}

// serveStages are the stages dcmodeld_stage_seconds knows, grouped by the
// handlers that run them: ingest first, then the queued query handlers.
var (
	ingestStages = []string{"ingest.decode", "train.kooza", "train.inbreadth", "train.indepth", "train.ref", "refreeze"}
	queryStages  = []string{"queue.wait", "synthesize", "replay", "encode", "crossexam", "replay.decode",
		"whatif.compile", "whatif.solve", "provision.compile", "provision.characterize", "provision.search"}
	queryHandlers = []string{"synthesize", "characterize", "replay", "whatif", "provision"}
)

// serveLayer turns two scrapes of a daemon into the serve layer's numbers
// for the window between them: each stage's share of all handler time, the
// share of handler time no stage accounts for, mean queue wait, and counts.
// The stage and handler names are the daemon's, matched here as strings, so
// a rename there must fail the run, not zero a share: a stage in the scrape
// that the tables above do not know is an error, and so are a window without
// time in any known handler and handler time of which no known stage took
// any.
func serveLayer(before, after map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	if after == nil {
		return out, nil
	}
	known := map[string]bool{}
	for _, s := range append(append([]string(nil), ingestStages...), queryStages...) {
		known[fmt.Sprintf("dcmodeld_stage_seconds_sum{stage=%q}", s)] = true
	}
	for series := range after {
		if strings.HasPrefix(series, "dcmodeld_stage_seconds_sum{") && !known[series] {
			return nil, fmt.Errorf("/metrics has %s, a stage the benchmark's tables do not know", series)
		}
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	handlerTime := func(h string) float64 { return delta(fmt.Sprintf("dcmodeld_request_seconds_sum{handler=%q}", h)) }
	stageTime := func(s string) float64 { return delta(fmt.Sprintf("dcmodeld_stage_seconds_sum{stage=%q}", s)) }
	ingest := handlerTime("ingest")
	var queries float64
	for _, h := range queryHandlers {
		queries += handlerTime(h)
	}
	if ingest+queries <= 0 {
		return nil, fmt.Errorf("/metrics has no request time under any of the handlers ingest, %v", queryHandlers)
	}
	var renamed error
	unaccounted := func(stages []string, total float64) float64 {
		if total <= 0 {
			return 0
		}
		var sum float64
		for _, s := range stages {
			sum += stageTime(s)
		}
		if sum == 0 {
			renamed = fmt.Errorf("/metrics has %.3g s of handler time and none in any of the stages %v", total, stages)
		}
		return 1 - sum/total
	}
	for _, s := range append(append([]string(nil), ingestStages...), queryStages...) {
		out["serve.stage."+s+"_share"] = stageTime(s) / (ingest + queries)
	}
	out["serve.unaccounted_share.ingest"] = unaccounted(ingestStages, ingest)
	out["serve.unaccounted_share.query"] = unaccounted(queryStages, queries)
	if n := delta(`dcmodeld_stage_seconds_count{stage="queue.wait"}`); n > 0 {
		out["serve.queue_wait_us"] = stageTime("queue.wait") / n * 1e6
	}
	out["serve.retrains"] = delta("dcmodeld_retrain_total")
	out["serve.drift_retrains"] = delta("dcmodeld_retrain_drift_total")
	out["serve.retrain_errors"] = delta("dcmodeld_retrain_errors_total")
	out["serve.rejected_429"] = delta("dcmodeld_queue_rejected_total")
	return out, renamed
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's VmHWM: each workload runs in a process of its
// own, so this is the workload's peak resident memory.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// benchDir is the directory of the benchmark's sources: the working
// directory under `go -C benchmark run .`, benchmark/ below it under run.sh.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark"
	}
	return "."
}

// ---------------------------------------------------------------------------
// The full set: every workload, each in a child process of its own.

// stamp says what produced a set of runs.
type stamp struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	When       string  `json:"when"`
}

// runSetResult is one full set, as -json writes it.
type runSetResult struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*report `json:"workloads"`
}

func newStamp(cfg runConfig) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// runSet runs every workload in its own child process (fresh heap, its own
// VmHWM) and reports whether all of them ended correct.
func runSet(cfg runConfig) (*runSetResult, bool) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	set := &runSetResult{Stamp: newStamp(cfg), Workloads: map[string]*report{}}
	ok := true
	for _, def := range workloads {
		args := []string{"-workload", def.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
		if cfg.traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(exe, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		// The child's last two lines: its detail, then its result.
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep.detail) != nil ||
			json.Unmarshal([]byte(lines[len(lines)-1]), &rep.result) != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: no result (%v)\n%s", def.name, err, stderr.String())
			ok = false
			continue
		}
		if err != nil || !rep.Correct {
			ok = false
		}
		set.Workloads[def.name] = &rep
	}
	return set, ok
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints one workload's metrics by name, with units.
func printReport(out *os.File, def workloadDef, res *report) {
	fmt.Fprintf(out, "== %s: %d attempted, %d failed, correct=%t\n", def.name, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(out, "   work = %s; op = %s; op tail = p%g\n", def.unit, def.op, def.tail)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
	fmt.Fprintf(out, "   samples: op %d, reader %d\n", res.Samples["op"], res.Samples["reader"])
	for _, n := range res.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
}

func printSet(out *os.File, set *runSetResult) {
	s := set.Stamp
	fmt.Fprintf(out, "benchmark: %s, nproc %d, GOMAXPROCS %d, commit %s, seed %d, %gs windows, traced %t\n",
		s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Commit, s.Seed, s.Seconds, s.Traced)
	for _, def := range workloads {
		if res := set.Workloads[def.name]; res != nil {
			printReport(out, def, res)
		}
	}
}
