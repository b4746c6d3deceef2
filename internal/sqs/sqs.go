// Package sqs implements a Stochastic Queuing Simulation in the style of
// Meisner et al.: a two-phase datacenter-level evaluation methodology. The
// first phase characterizes the workload online — recording task arrival
// rates and service requirements into bounded-memory empirical models via
// statistical sampling. The second phase feeds those empirical models into
// a queueing simulation of candidate system configurations, scaling to
// large server counts "without significant overhead with appropriate
// tuning of the sampling parameters".
package sqs

import (
	"context"
	"fmt"
	"math/rand"

	"dcmodel/internal/queueing"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Characterizer is the online phase: it observes (arrival time, service
// demand) pairs and maintains reservoir-sampled empirical models.
type Characterizer struct {
	interarrival *stats.Reservoir
	service      *stats.Reservoir
	lastArrival  float64
	observed     int64
}

// NewCharacterizer returns a characterizer with the given per-model sample
// budget (the SQS "sampling parameter").
func NewCharacterizer(maxSamples int, r *rand.Rand) (*Characterizer, error) {
	if maxSamples < 2 {
		return nil, fmt.Errorf("sqs: sample budget must be >= 2, got %d", maxSamples)
	}
	return &Characterizer{
		interarrival: stats.NewReservoir(maxSamples, r),
		service:      stats.NewReservoir(maxSamples, r),
	}, nil
}

// Observe records one task: its arrival instant (non-decreasing) and its
// service demand in seconds.
func (c *Characterizer) Observe(arrival, service float64) error {
	if arrival < c.lastArrival {
		return fmt.Errorf("sqs: arrivals must be non-decreasing (%g after %g)", arrival, c.lastArrival)
	}
	if service < 0 {
		return fmt.Errorf("sqs: negative service demand %g", service)
	}
	if c.observed > 0 {
		c.interarrival.Add(arrival - c.lastArrival)
	}
	c.lastArrival = arrival
	c.service.Add(service)
	c.observed++
	return nil
}

// ObserveTrace characterizes a whole workload trace: arrivals are request
// arrivals and the service demand is the request's total busy time (sum of
// span durations).
func (c *Characterizer) ObserveTrace(tr *trace.Trace) error {
	if tr == nil || tr.Len() == 0 {
		return trace.ErrEmptyTrace
	}
	sorted := &trace.Trace{Requests: append([]trace.Request(nil), tr.Requests...)}
	sorted.SortByArrival()
	for _, r := range sorted.Requests {
		var service float64
		for _, s := range r.Spans {
			service += s.Duration
		}
		if err := c.Observe(r.Arrival, service); err != nil {
			return err
		}
	}
	return nil
}

// Observed returns the number of tasks characterized.
func (c *Characterizer) Observed() int64 { return c.observed }

// Model is the empirical workload model of the first phase.
type Model struct {
	// Interarrival and Service are the empirical distributions.
	Interarrival, Service *stats.Empirical
	// Rate is the mean arrival rate.
	Rate float64
	// MeanService is the mean service demand.
	MeanService float64
}

// Model freezes the characterizer into an empirical workload model.
func (c *Characterizer) Model() (*Model, error) {
	if c.observed < 3 {
		return nil, fmt.Errorf("sqs: need >= 3 observations, got %d", c.observed)
	}
	inter, err := c.interarrival.Empirical()
	if err != nil {
		return nil, err
	}
	svc, err := c.service.Empirical()
	if err != nil {
		return nil, err
	}
	m := &Model{Interarrival: inter, Service: svc, MeanService: svc.Mean()}
	if mean := inter.Mean(); mean > 0 {
		m.Rate = 1 / mean
	}
	return m, nil
}

// Result is the outcome of evaluating one configuration.
type Result struct {
	// Servers is the evaluated server count.
	Servers int
	// Utilization is the per-server utilization.
	Utilization float64
	// MeanResponse, P95 and P99 are response-time statistics (seconds).
	MeanResponse, P95, P99 float64
	// Throughput is the completed-task rate.
	Throughput float64
}

// Evaluate runs the queueing phase: the empirical workload against a farm
// of identical servers (one shared FIFO queue, k servers — the
// router-with-central-queue abstraction), simulating the given number of
// tasks. A run abandoned because ctx is done returns ctx.Err(); ctx is
// looked at every few thousand tasks.
func (m *Model) Evaluate(ctx context.Context, servers, tasks int, r *rand.Rand) (Result, error) {
	if servers < 1 {
		return Result{}, fmt.Errorf("sqs: need >= 1 server, got %d", servers)
	}
	if tasks < 10 {
		return Result{}, fmt.Errorf("sqs: need >= 10 tasks, got %d", tasks)
	}
	// Stability check.
	rho := m.Rate * m.MeanService / float64(servers)
	if rho >= 1 {
		return Result{}, fmt.Errorf("sqs: configuration unstable (utilization %.2f >= 1)", rho)
	}
	cfg := queueing.Config{
		Stations: []queueing.Station{{
			Name: "farm", Servers: servers, Service: m.Service,
		}},
		Classes:      []queueing.Class{{Name: "task", Weight: 1, Path: []int{0}}},
		Interarrival: m.Interarrival,
		NumJobs:      tasks,
		Warmup:       tasks / 10,
	}
	res, err := queueing.SimulateContext(ctx, cfg, r)
	if err != nil {
		return Result{}, err
	}
	resp := res.Responses()
	return Result{
		Servers:      servers,
		Utilization:  res.Stations[0].Utilization,
		MeanResponse: stats.Mean(resp),
		P95:          stats.Quantile(resp, 0.95),
		P99:          stats.Quantile(resp, 0.99),
		Throughput:   res.Throughput,
	}, nil
}
