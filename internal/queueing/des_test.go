package queueing

import (
	"math/rand"
	"testing"

	"dcmodel/internal/stats"
)

func mm1Config(lambda, mu float64, jobs int) Config {
	return Config{
		Stations:     []Station{{Name: "s", Servers: 1, Service: stats.Exponential{Rate: mu}}},
		Classes:      []Class{{Name: "c", Weight: 1, Path: []int{0}}},
		Interarrival: stats.Exponential{Rate: lambda},
		NumJobs:      jobs,
		Warmup:       jobs / 10,
	}
}

func TestSimulateMatchesMM1(t *testing.T) {
	r := rand.New(rand.NewSource(200))
	res, err := Simulate(mm1Config(0.5, 1, 60000), r)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMM1(0.5, 1)
	got := stats.Mean(res.Responses())
	approx(t, got, q.MeanResponse(), 0.1, "simulated mean response vs M/M/1")
	approx(t, res.Stations[0].Utilization, 0.5, 0.02, "utilization")
	approx(t, res.Stations[0].MeanQueueLen, q.MeanJobs(), 0.15, "mean jobs")
	approx(t, res.Throughput, 0.5, 0.02, "throughput")
}

func TestSimulateMatchesMMc(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	cfg := mm1Config(1.7, 1, 60000)
	cfg.Stations[0].Servers = 2
	res, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewMMc(1.7, 1, 2)
	approx(t, stats.Mean(res.Responses()), q.MeanResponse(), 0.25, "M/M/2 response")
	approx(t, res.Stations[0].Utilization, q.Utilization(), 0.03, "M/M/2 utilization")
}

func TestSimulateMatchesMD1(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	cfg := mm1Config(0.6, 0, 60000)
	cfg.Stations[0].Service = stats.Deterministic{Value: 1}
	res, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewGG1(0.6, 1, 1, 0) // Kingman is exact for Poisson arrivals
	approx(t, stats.Mean(res.Responses()), q.MeanResponse(), 0.08, "M/D/1 response")
}

func TestSimulateTandemMatchesJackson(t *testing.T) {
	// web -> app -> db with Poisson arrivals: the DES should agree with the
	// Jackson product-form solution.
	r := rand.New(rand.NewSource(203))
	cfg := Config{
		Stations: []Station{
			{Name: "web", Servers: 1, Service: stats.Exponential{Rate: 4}},
			{Name: "app", Servers: 1, Service: stats.Exponential{Rate: 3}},
			{Name: "db", Servers: 1, Service: stats.Exponential{Rate: 5}},
		},
		Classes:      []Class{{Name: "req", Weight: 1, Path: []int{0, 1, 2}}},
		Interarrival: stats.Exponential{Rate: 2},
		NumJobs:      60000,
		Warmup:       6000,
	}
	res, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := TandemNetwork([]string{"web", "app", "db"}, []float64{4, 3, 5}, []int{1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := net.Solve()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, stats.Mean(res.Responses()), sol.MeanResponse, 0.12, "tandem response vs Jackson")
	for i := range res.Stations {
		approx(t, res.Stations[i].Utilization, sol.Nodes[i].Utilization, 0.03, "tier utilization "+res.Stations[i].Name)
	}
}

func TestSimulateMultiClass(t *testing.T) {
	// Two classes with different paths; class mix should match weights.
	r := rand.New(rand.NewSource(204))
	cfg := Config{
		Stations: []Station{
			{Name: "a", Servers: 1, Service: stats.Exponential{Rate: 10}},
			{Name: "b", Servers: 1, Service: stats.Exponential{Rate: 10}},
		},
		Classes: []Class{
			{Name: "short", Weight: 3, Path: []int{0}},
			{Name: "long", Weight: 1, Path: []int{0, 1}},
		},
		Interarrival: stats.Exponential{Rate: 2},
		NumJobs:      20000,
	}
	res, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	var short int
	for _, j := range res.Jobs {
		if j.Class == 0 {
			short++
		}
	}
	frac := float64(short) / float64(len(res.Jobs))
	approx(t, frac, 0.75, 0.02, "class mix")
	// Class service overrides.
	cfg.Classes[1].Service = []stats.Dist{stats.Deterministic{Value: 0.001}, nil}
	res2, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res2.Jobs {
		if j.Class == 1 && j.Steps[0].Service != 0.001 {
			t.Fatalf("service override not applied: %v", j.Steps[0])
		}
	}
}

func TestSimulateConservation(t *testing.T) {
	// Every recorded job has monotone step times and response >= total
	// service.
	r := rand.New(rand.NewSource(205))
	res, err := Simulate(mm1Config(0.8, 1, 5000), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 5000-500 {
		t.Fatalf("recorded %d jobs, want %d", len(res.Jobs), 4500)
	}
	for _, j := range res.Jobs {
		var svc, wait float64
		for _, s := range j.Steps {
			if s.Enter < j.Arrival-1e-9 {
				t.Fatalf("step enters before arrival: %+v", j)
			}
			svc += s.Service
			wait += s.Wait
		}
		if j.Response() < svc-1e-9 {
			t.Fatalf("response %g below service %g", j.Response(), svc)
		}
		approx(t, j.Response(), svc+wait, 1e-6, "response = wait + service")
	}
}

func TestSimulateDeterministicNoWait(t *testing.T) {
	// Arrivals slower than deterministic service: nobody waits.
	r := rand.New(rand.NewSource(206))
	cfg := Config{
		Stations:     []Station{{Name: "s", Servers: 1, Service: stats.Deterministic{Value: 1}}},
		Classes:      []Class{{Name: "c", Weight: 1, Path: []int{0}}},
		Interarrival: stats.Deterministic{Value: 2},
		NumJobs:      100,
	}
	res, err := Simulate(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		approx(t, j.Response(), 1, 1e-9, "no-wait response")
	}
	approx(t, res.Stations[0].MeanWait, 0, 1e-9, "no waiting")
	approx(t, res.Stations[0].Utilization, 0.5, 0.02, "D/D/1 utilization")
}

func TestSimulateValidation(t *testing.T) {
	r := rand.New(rand.NewSource(207))
	base := mm1Config(0.5, 1, 100)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no stations", func(c *Config) { c.Stations = nil }},
		{"no classes", func(c *Config) { c.Classes = nil }},
		{"nil interarrival", func(c *Config) { c.Interarrival = nil }},
		{"zero jobs", func(c *Config) { c.NumJobs = 0 }},
		{"warmup too large", func(c *Config) { c.Warmup = 100 }},
		{"zero servers", func(c *Config) { c.Stations[0].Servers = 0 }},
		{"nil service", func(c *Config) { c.Stations[0].Service = nil }},
		{"empty path", func(c *Config) { c.Classes[0].Path = nil }},
		{"bad station ref", func(c *Config) { c.Classes[0].Path = []int{5} }},
		{"negative weight", func(c *Config) { c.Classes[0].Weight = -1 }},
		{"zero weights", func(c *Config) { c.Classes[0].Weight = 0 }},
		{"override length", func(c *Config) { c.Classes[0].Service = []stats.Dist{nil, nil} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := mm1Config(0.5, 1, 100)
			cfg.Stations = append([]Station(nil), cfg.Stations...)
			cfg.Classes = append([]Class(nil), cfg.Classes...)
			tt.mutate(&cfg)
			if _, err := Simulate(cfg, r); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := Simulate(base, r); err != nil {
		t.Errorf("base config should be valid: %v", err)
	}
}

func TestSimulateDeterministicSeed(t *testing.T) {
	res1, err := Simulate(mm1Config(0.5, 1, 2000), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Simulate(mm1Config(0.5, 1, 2000), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Makespan != res2.Makespan || len(res1.Jobs) != len(res2.Jobs) {
		t.Error("same seed should reproduce the run exactly")
	}
	for i := range res1.Jobs {
		if res1.Jobs[i].Completion != res2.Jobs[i].Completion {
			t.Fatal("job completions differ under same seed")
		}
	}
}
