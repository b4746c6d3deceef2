package sqs

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/queueing"
	"dcmodel/internal/stats"
	"dcmodel/internal/workload"
)

func TestCharacterizerBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1200))
	c, err := NewCharacterizer(1000, r)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson arrivals at rate 10, exponential service mean 0.05.
	var now float64
	for i := 0; i < 20000; i++ {
		now += r.ExpFloat64() / 10
		if err := c.Observe(now, r.ExpFloat64()*0.05); err != nil {
			t.Fatal(err)
		}
	}
	if c.Observed() != 20000 {
		t.Errorf("observed = %d", c.Observed())
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate < 9 || m.Rate > 11 {
		t.Errorf("rate = %g, want ~10", m.Rate)
	}
	if m.MeanService < 0.045 || m.MeanService > 0.055 {
		t.Errorf("mean service = %g, want ~0.05", m.MeanService)
	}
	// The reservoir bounded memory at 1000 samples.
	if m.Interarrival.Params()[0] != 1000 || m.Service.Params()[0] != 1000 {
		t.Error("reservoir did not bound the sample")
	}
	// The sampled distribution still matches the true one.
	ks := stats.KSTest(m.Service.Sample(), stats.Exponential{Rate: 20})
	if ks.P < 0.001 {
		t.Errorf("sampled service distribution rejected: p=%g", ks.P)
	}
}

func TestCharacterizerErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1201))
	if _, err := NewCharacterizer(1, r); err == nil {
		t.Error("tiny budget should fail")
	}
	c, err := NewCharacterizer(10, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(5, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(4, 0.1); err == nil {
		t.Error("decreasing arrivals should fail")
	}
	if err := c.Observe(6, -1); err == nil {
		t.Error("negative service should fail")
	}
	if _, err := c.Model(); err == nil {
		t.Error("model with < 3 observations should fail")
	}
	if err := c.ObserveTrace(nil); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestEvaluateMatchesMMc(t *testing.T) {
	// With exponential inputs the SQS simulation must agree with the
	// analytic M/M/c model.
	r := rand.New(rand.NewSource(1202))
	c, err := NewCharacterizer(200000, r)
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	for i := 0; i < 100000; i++ {
		now += r.ExpFloat64() / 20
		if err := c.Observe(now, r.ExpFloat64()*0.2); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(context.Background(), 8, 50000, r)
	if err != nil {
		t.Fatal(err)
	}
	q, err := queueing.NewMMc(20, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.RelError(q.MeanResponse(), res.MeanResponse); d > 0.1 {
		t.Errorf("mean response deviation %g (%g vs %g)", d, res.MeanResponse, q.MeanResponse())
	}
	if d := stats.RelError(q.Utilization(), res.Utilization); d > 0.06 {
		t.Errorf("utilization deviation %g", d)
	}
}

func TestEvaluateErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1203))
	c, _ := NewCharacterizer(100, r)
	var now float64
	for i := 0; i < 100; i++ {
		now += 0.1
		_ = c.Observe(now, 0.5)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(context.Background(), 0, 100, r); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := m.Evaluate(context.Background(), 5, 5, r); err == nil {
		t.Error("tiny task count should fail")
	}
	// rho = 10 * 0.5 / 4 = 1.25 >= 1.
	if _, err := m.Evaluate(context.Background(), 4, 1000, r); err == nil {
		t.Error("unstable configuration should fail")
	}
}

func TestSQSOnGFSTrace(t *testing.T) {
	cl, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cl.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: 3000,
	}, rand.New(rand.NewSource(1204)))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1205))
	c, err := NewCharacterizer(5000, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ObserveTrace(tr); err != nil {
		t.Fatal(err)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rate < 15 || m.Rate > 25 {
		t.Errorf("characterized rate = %g, want ~20", m.Rate)
	}
	// Service demand ~ request busy time (~14 ms mix mean).
	if m.MeanService < 0.005 || m.MeanService > 0.05 {
		t.Errorf("characterized service = %g", m.MeanService)
	}
	// DC-level evaluation scales to many servers cheaply.
	res, err := m.Evaluate(context.Background(), 100, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > 0.05 {
		t.Errorf("100-server farm utilization = %g, want tiny", res.Utilization)
	}
	// More servers can only help response time.
	res1, err := m.Evaluate(context.Background(), 1, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	if res1.MeanResponse < res.MeanResponse {
		t.Error("1 server should be slower than 100")
	}
}

// countingCtx is a context that is done from its cut-th look at Err on, and
// counts the looks.
type countingCtx struct {
	context.Context
	looks, cut int
}

func (c *countingCtx) Err() error {
	if c.looks++; c.cut > 0 && c.looks >= c.cut {
		return context.Canceled
	}
	return nil
}

// TestEvaluateHonoursContext: Evaluate looks at its context every 4096
// tasks, a run cut off mid-way returns ctx.Err(), and a run never cut off
// is the one a background context gives, to the bit.
func TestEvaluateHonoursContext(t *testing.T) {
	r := rand.New(rand.NewSource(1204))
	c, _ := NewCharacterizer(1000, r)
	var now float64
	for i := 0; i < 5000; i++ {
		now += r.ExpFloat64() / 20
		_ = c.Observe(now, r.ExpFloat64()*0.2)
	}
	m, err := c.Model()
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 20000
	want, err := m.Evaluate(context.Background(), 8, tasks, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	watched := &countingCtx{Context: context.Background()}
	got, err := m.Evaluate(watched, 8, tasks, rand.New(rand.NewSource(7)))
	if err != nil || got != want {
		t.Fatalf("uncancelled run = %+v, %v; want %+v as with a background context", got, err, want)
	}
	if watched.looks != tasks/4096 {
		t.Errorf("looked at the context %d times over %d tasks, want %d", watched.looks, tasks, tasks/4096)
	}

	cut := &countingCtx{Context: context.Background(), cut: 2}
	if _, err := m.Evaluate(cut, 8, tasks, rand.New(rand.NewSource(7))); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled after %d tasks returned %v, want context.Canceled", 2*4096, err)
	}
	if cut.looks != 2 {
		t.Errorf("cancelled run looked at the context %d times, want 2 (it stops at the first done look)", cut.looks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Evaluate(ctx, 8, tasks, rand.New(rand.NewSource(7))); !errors.Is(err, context.Canceled) {
		t.Fatalf("run on a cancelled context returned %v, want context.Canceled", err)
	}
}
