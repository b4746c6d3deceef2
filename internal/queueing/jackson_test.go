package queueing

import (
	"testing"
)

func TestJacksonSingleNodeIsMM1(t *testing.T) {
	net := &JacksonNetwork{
		Nodes:   []JacksonNode{{Name: "s", Mu: 1, Servers: 1, External: 0.5}},
		Routing: [][]float64{{0}},
	}
	res, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMM1(0.5, 1)
	approx(t, res.MeanResponse, q.MeanResponse(), 1e-12, "single node response")
	approx(t, res.Nodes[0].Utilization, 0.5, 1e-12, "utilization")
	approx(t, res.Throughput, 0.5, 1e-12, "throughput")
}

func TestJacksonTandem(t *testing.T) {
	net, err := TandemNetwork([]string{"web", "app", "db"}, []float64{4, 3, 5}, []int{1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Tandem of M/M/1: W = sum 1/(mu_i - lambda).
	want := 1/(4-2.0) + 1/(3-2.0) + 1/(5-2.0)
	approx(t, res.MeanResponse, want, 1e-9, "tandem response")
	for _, node := range res.Nodes {
		approx(t, node.Arrival, 2, 1e-9, "tandem arrival rate "+node.Name)
	}
}

func TestJacksonFeedback(t *testing.T) {
	// Single node with feedback probability p=0.5: effective arrival
	// lambda/(1-p).
	net := &JacksonNetwork{
		Nodes:   []JacksonNode{{Name: "s", Mu: 10, Servers: 1, External: 2}},
		Routing: [][]float64{{0.5}},
	}
	res, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Nodes[0].Arrival, 4, 1e-9, "feedback effective arrival")
	q, _ := NewMM1(4, 10)
	approx(t, res.Nodes[0].MeanJobs, q.MeanJobs(), 1e-9, "feedback mean jobs")
}

func TestJacksonMultiServerNode(t *testing.T) {
	net := &JacksonNetwork{
		Nodes:   []JacksonNode{{Name: "s", Mu: 1, Servers: 3, External: 2}},
		Routing: [][]float64{{0}},
	}
	res, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMMc(2, 1, 3)
	approx(t, res.Nodes[0].MeanResponse, q.MeanResponse(), 1e-9, "M/M/3 node")
}

func TestJacksonErrors(t *testing.T) {
	tests := []struct {
		name string
		net  JacksonNetwork
	}{
		{"no nodes", JacksonNetwork{}},
		{"routing rows", JacksonNetwork{Nodes: []JacksonNode{{Mu: 1, Servers: 1, External: 0.1}}}},
		{"routing cols", JacksonNetwork{
			Nodes:   []JacksonNode{{Mu: 1, Servers: 1, External: 0.1}},
			Routing: [][]float64{{0, 0}},
		}},
		{"negative prob", JacksonNetwork{
			Nodes:   []JacksonNode{{Mu: 1, Servers: 1, External: 0.1}},
			Routing: [][]float64{{-0.5}},
		}},
		{"row over 1", JacksonNetwork{
			Nodes:   []JacksonNode{{Mu: 1, Servers: 1, External: 0.1}},
			Routing: [][]float64{{1.5}},
		}},
		{"no external", JacksonNetwork{
			Nodes:   []JacksonNode{{Mu: 1, Servers: 1}},
			Routing: [][]float64{{0}},
		}},
		{"unstable node", JacksonNetwork{
			Nodes:   []JacksonNode{{Mu: 1, Servers: 1, External: 2}},
			Routing: [][]float64{{0}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.net.Solve(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTandemNetworkErrors(t *testing.T) {
	if _, err := TandemNetwork(nil, nil, nil, 1); err == nil {
		t.Error("empty tandem should fail")
	}
	if _, err := TandemNetwork([]string{"a"}, []float64{1, 2}, []int{1}, 1); err == nil {
		t.Error("mismatched tandem should fail")
	}
}

func TestPIControllerConverges(t *testing.T) {
	// Closed loop against an analytic M/M/1: offered load 2.0 saturates
	// the mu=1 server, so the controller must shed load until response
	// is near target.
	ctl, err := NewPIController(0.05, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	offered := 2.0
	var response float64
	for i := 0; i < 400; i++ {
		admitted := offered * ctl.Admission()
		if admitted >= 1 {
			response = 100 // saturated: huge measured latency
		} else {
			q, err := NewMM1(admitted, 1)
			if err != nil {
				t.Fatal(err)
			}
			response = q.MeanResponse()
		}
		ctl.Observe(response)
	}
	approx(t, response, 4, 1.0, "controlled response near target")
	// Target response 4 on M/M/1 mu=1 means lambda = 0.75.
	approx(t, offered*ctl.Admission(), 0.75, 0.15, "admitted load")
}

func TestPIControllerBounds(t *testing.T) {
	ctl, err := NewPIController(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Huge error must clamp admission to [0.01, 1].
	if a := ctl.Observe(1000); a < 0.01 || a > 1 {
		t.Errorf("admission %g out of bounds", a)
	}
	for i := 0; i < 100; i++ {
		ctl.Observe(1000)
	}
	if a := ctl.Admission(); a != 0.01 {
		t.Errorf("admission floor = %g, want 0.01", a)
	}
}

func TestPIControllerErrors(t *testing.T) {
	if _, err := NewPIController(1, 1, 0); err == nil {
		t.Error("zero target should fail")
	}
	if _, err := NewPIController(-1, 1, 1); err == nil {
		t.Error("negative gain should fail")
	}
}
