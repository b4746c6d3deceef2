package queueing

import (
	"context"
	"fmt"
	"math/rand"

	"dcmodel/internal/stats"
)

// The discrete-event simulator: an open multi-station queueing network in
// which each job follows a per-class path of stations with FIFO queues and
// a configurable number of servers per station. This is the machinery
// behind the in-depth baseline (3-tier web model) and the SQS-style
// evaluation loop.

// Station configures one service station.
type Station struct {
	// Name labels the station in results.
	Name string
	// Servers is the number of parallel servers (>= 1).
	Servers int
	// Service is the default service-time distribution, used when the
	// job's class does not override it.
	Service stats.Dist
}

// Class describes a job class: its share of the arrival stream, the path of
// stations it visits, and optional per-step service-time overrides.
type Class struct {
	// Name labels the class.
	Name string
	// Weight is the relative probability of an arrival belonging to this
	// class. Weights are normalized internally.
	Weight float64
	// Path lists station indices in visit order.
	Path []int
	// Service optionally overrides the per-step service distribution; if
	// non-nil it must have len(Path) entries (nil entries fall back to the
	// station default).
	Service []stats.Dist
}

// Config configures a simulation run.
type Config struct {
	Stations []Station
	Classes  []Class
	// Interarrival is the distribution of times between consecutive
	// external arrivals (all arrivals enter at their class path's first
	// station).
	Interarrival stats.Dist
	// NumJobs is the number of jobs to complete before stopping.
	NumJobs int
	// Warmup is the number of initial completed jobs excluded from the
	// reported job records and station statistics' response aggregates.
	Warmup int
}

// StepRecord is one station visit of a completed job.
type StepRecord struct {
	Station int
	// Enter is the time the job arrived at the station.
	Enter float64
	// Wait is the queueing delay before service started.
	Wait float64
	// Service is the service duration.
	Service float64
}

// JobRecord is one completed job.
type JobRecord struct {
	ID      int
	Class   int
	Arrival float64
	// Completion is the time the job left its last station.
	Completion float64
	Steps      []StepRecord
}

// Response returns the end-to-end sojourn time.
func (j JobRecord) Response() float64 { return j.Completion - j.Arrival }

// StationStats aggregates a station's steady-state measurements.
type StationStats struct {
	Name string
	// Utilization is busy-server-time / (servers * makespan).
	Utilization float64
	// MeanQueueLen is the time-averaged number of jobs at the station
	// (waiting + in service).
	MeanQueueLen float64
	// MeanWait and MeanService average over post-warmup visits.
	MeanWait    float64
	MeanService float64
	// Visits counts post-warmup station visits.
	Visits int
}

// Result is the outcome of a simulation run.
type Result struct {
	// Jobs holds the post-warmup completed jobs in completion order.
	Jobs []JobRecord
	// Stations holds per-station statistics.
	Stations []StationStats
	// Makespan is the completion time of the last job.
	Makespan float64
	// Throughput is completed jobs (including warmup) divided by makespan.
	Throughput float64
}

// Responses extracts the end-to-end response times of all recorded jobs.
func (r Result) Responses() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.Response()
	}
	return out
}

type eventKind int

const (
	evArrival eventKind = iota
	evDeparture
)

type event struct {
	time    float64
	kind    eventKind
	job     *desJob
	station int
	seq     int // tie-breaker for determinism
}

// eventHeap is a typed binary min-heap ordered by (time, seq). Hand-rolled
// instead of container/heap so push and pop move concrete events with no
// interface{} boxing — the heap is the hottest structure in the simulator.
// (time, seq) is a total order, so pop order is independent of the heap's
// internal layout and matches any correct heap implementation.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

type desJob struct {
	id      int
	class   int
	arrival float64
	step    int
	steps   []StepRecord
	enter   float64 // time entered current station
}

type desStation struct {
	cfg      Station
	queue    []*desJob
	busy     int
	lastT    float64 // last time the population changed
	area     float64 // integral of population over time
	busyArea float64 // integral of busy servers over time
	pop      int

	waitSum, svcSum float64
	visits          int
}

func (s *desStation) account(now float64) {
	dt := now - s.lastT
	s.area += dt * float64(s.pop)
	s.busyArea += dt * float64(s.busy)
	s.lastT = now
}

// Simulate runs the network until cfg.NumJobs jobs complete, using r for
// all randomness. It validates the configuration and returns per-job and
// per-station statistics.
func Simulate(cfg Config, r *rand.Rand) (Result, error) {
	return SimulateContext(context.Background(), cfg, r)
}

// ctxCheckJobs is how many completed jobs SimulateContext runs between two
// looks at its context.
const ctxCheckJobs = 4096

// SimulateContext is Simulate, abandoned with ctx.Err() once ctx is done: it
// looks every ctxCheckJobs completed jobs, so a cancelled caller waits for a
// few thousand jobs at most. A run that is not cancelled is Simulate's.
func SimulateContext(ctx context.Context, cfg Config, r *rand.Rand) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	stations := make([]*desStation, len(cfg.Stations))
	for i, sc := range cfg.Stations {
		stations[i] = &desStation{cfg: sc}
	}
	weights := make([]float64, len(cfg.Classes))
	for i, c := range cfg.Classes {
		weights[i] = c.Weight
	}
	classAlias, err := stats.NewAlias(weights)
	if err != nil {
		return Result{}, fmt.Errorf("queueing: class weights: %w", err)
	}
	pickClass := func() int { return classAlias.Draw(r) }
	serviceFor := func(class, step int) stats.Dist {
		c := cfg.Classes[class]
		if c.Service != nil && c.Service[step] != nil {
			return c.Service[step]
		}
		return cfg.Stations[c.Path[step]].Service
	}

	var (
		h         eventHeap
		seq       int
		completed int
		nextID    int
		result    Result
	)
	push := func(e event) {
		e.seq = seq
		seq++
		h.push(e)
	}
	scheduleArrival := func(now float64) {
		class := pickClass()
		j := &desJob{id: nextID, class: class, arrival: now}
		nextID++
		push(event{time: now, kind: evArrival, job: j, station: cfg.Classes[class].Path[0]})
	}
	startService := func(st *desStation, sIdx int, j *desJob, now float64) {
		st.busy++
		svc := serviceFor(j.class, j.step).Rand(r)
		if svc < 0 {
			svc = 0
		}
		wait := now - j.enter
		j.steps = append(j.steps, StepRecord{Station: sIdx, Enter: j.enter, Wait: wait, Service: svc})
		push(event{time: now + svc, kind: evDeparture, job: j, station: sIdx})
	}

	// Prime the arrival-generation chain: each external arrival schedules
	// the next one.
	firstGap := cfg.Interarrival.Rand(r)
	if firstGap < 0 {
		firstGap = 0
	}
	arrivalsScheduled := 1
	scheduleArrival(firstGap)

	var now float64
	for completed < cfg.NumJobs && h.Len() > 0 {
		e := h.pop()
		now = e.time
		switch e.kind {
		case evArrival:
			j := e.job
			if j.step == 0 && arrivalsScheduled < cfg.NumJobs*4 {
				// External arrival: schedule the next one (bounded to
				// avoid unbounded event growth under heavy backlog).
				gap := cfg.Interarrival.Rand(r)
				if gap < 0 {
					gap = 0
				}
				arrivalsScheduled++
				scheduleArrival(now + gap)
			}
			st := stations[e.station]
			st.account(now)
			st.pop++
			j.enter = now
			if st.busy < st.cfg.Servers {
				startService(st, e.station, j, now)
			} else {
				st.queue = append(st.queue, j)
			}
		case evDeparture:
			st := stations[e.station]
			st.account(now)
			st.pop--
			st.busy--
			j := e.job
			step := j.steps[len(j.steps)-1]
			if completed >= cfg.Warmup {
				st.waitSum += step.Wait
				st.svcSum += step.Service
				st.visits++
			}
			// Next waiting job starts service.
			if len(st.queue) > 0 {
				next := st.queue[0]
				st.queue = st.queue[1:]
				startService(st, e.station, next, now)
			}
			// Advance the departing job.
			j.step++
			path := cfg.Classes[j.class].Path
			if j.step < len(path) {
				push(event{time: now, kind: evArrival, job: j, station: path[j.step]})
			} else {
				completed++
				if completed%ctxCheckJobs == 0 {
					if err := ctx.Err(); err != nil {
						return Result{}, err
					}
				}
				if completed > cfg.Warmup {
					result.Jobs = append(result.Jobs, JobRecord{
						ID: j.id, Class: j.class, Arrival: j.arrival,
						Completion: now, Steps: j.steps,
					})
				}
			}
		}
	}
	result.Makespan = now
	if now > 0 {
		result.Throughput = float64(completed) / now
	}
	result.Stations = make([]StationStats, len(stations))
	for i, st := range stations {
		st.account(now)
		ss := StationStats{Name: st.cfg.Name, Visits: st.visits}
		if now > 0 {
			ss.Utilization = st.busyArea / (now * float64(st.cfg.Servers))
			ss.MeanQueueLen = st.area / now
		}
		if st.visits > 0 {
			ss.MeanWait = st.waitSum / float64(st.visits)
			ss.MeanService = st.svcSum / float64(st.visits)
		}
		result.Stations[i] = ss
	}
	return result, nil
}

func validate(cfg Config) error {
	if len(cfg.Stations) == 0 {
		return fmt.Errorf("queueing: simulation needs at least one station")
	}
	if len(cfg.Classes) == 0 {
		return fmt.Errorf("queueing: simulation needs at least one class")
	}
	if cfg.Interarrival == nil {
		return fmt.Errorf("queueing: simulation needs an interarrival distribution")
	}
	if cfg.NumJobs < 1 {
		return fmt.Errorf("queueing: NumJobs must be positive, got %d", cfg.NumJobs)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.NumJobs {
		return fmt.Errorf("queueing: Warmup %d out of range [0, %d)", cfg.Warmup, cfg.NumJobs)
	}
	for i, s := range cfg.Stations {
		if s.Servers < 1 {
			return fmt.Errorf("queueing: station %d (%s) needs >= 1 server", i, s.Name)
		}
		if s.Service == nil {
			return fmt.Errorf("queueing: station %d (%s) needs a service distribution", i, s.Name)
		}
	}
	var wsum float64
	for i, c := range cfg.Classes {
		if c.Weight < 0 {
			return fmt.Errorf("queueing: class %d (%s) has negative weight", i, c.Name)
		}
		wsum += c.Weight
		if len(c.Path) == 0 {
			return fmt.Errorf("queueing: class %d (%s) has an empty path", i, c.Name)
		}
		for _, st := range c.Path {
			if st < 0 || st >= len(cfg.Stations) {
				return fmt.Errorf("queueing: class %d (%s) references station %d out of range", i, c.Name, st)
			}
		}
		if c.Service != nil && len(c.Service) != len(c.Path) {
			return fmt.Errorf("queueing: class %d (%s) service overrides length %d, want %d", i, c.Name, len(c.Service), len(c.Path))
		}
	}
	if wsum <= 0 {
		return fmt.Errorf("queueing: class weights must sum to a positive value")
	}
	return nil
}
