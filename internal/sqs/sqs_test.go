package sqs

import (
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
	res, err := m.Evaluate(8, 50000, r)
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
	if _, err := m.Evaluate(0, 100, r); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := m.Evaluate(5, 5, r); err == nil {
		t.Error("tiny task count should fail")
	}
	// rho = 10 * 0.5 / 4 = 1.25 >= 1.
	if _, err := m.Evaluate(4, 1000, r); err == nil {
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
	res, err := m.Evaluate(100, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > 0.05 {
		t.Errorf("100-server farm utilization = %g, want tiny", res.Utilization)
	}
	// More servers can only help response time.
	res1, err := m.Evaluate(1, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	if res1.MeanResponse < res.MeanResponse {
		t.Error("1 server should be slower than 100")
	}
}
