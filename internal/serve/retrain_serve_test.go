package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// parkTrainers arms the test seam: every retrain of s, once it has taken
// its snapshot and let go of ingestMu, announces itself on entered and then
// waits for one value on release before it trains.
func parkTrainers(s *Server) (entered <-chan struct{}, release chan<- struct{}) {
	e, r := make(chan struct{}), make(chan struct{})
	s.ingestMu.Lock()
	s.parkTrainer = func() {
		e <- struct{}{}
		<-r
	}
	s.ingestMu.Unlock()
	return e, r
}

// returns fails the test unless f comes back soon; it is how the test
// tells "does not wait for the parked retrain" from a hang.
func returns(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return while a retrain was parked", what)
	}
}

// poisoned is regimeTrace with every arrival NaN: folded in by
// ingestUnchecked, its storage transitions are counted, and no trainer
// accepts it.
func poisoned(n int, startID int64) *trace.Trace {
	tr := regimeTrace(n, []int{0, 1, 2}, startID)
	for i := range tr.Requests {
		tr.Requests[i].Arrival = math.NaN()
	}
	return tr
}

func driftTransitions(s *Server) int64 {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.drift.Transitions()
}

// TestRetrainOffTheLock pins what training outside ingestMu is for. While a
// retrain sits between its snapshot and its install, ingestion, BreakerOpen,
// /healthz and /metrics all return (each took ingestMu and used to wait for
// the whole retrain); a second automatic trigger steps aside; a manual
// Retrain waits its turn and then trains on the later window; and a retrain
// that fails gives the drift accumulator its transitions back, with those
// that arrived meanwhile, and counts toward the breaker.
func TestRetrainOffTheLock(t *testing.T) {
	cfg := quietConfig()
	cfg.Window = 64
	cfg.RetrainMin = 1 << 30 // only the cold start retrains by itself
	cfg.StorageRegions = 8
	cfg.DiskBlocks = 8000
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Hour
	s := newTestServer(t, cfg)
	entered, release := parkTrainers(s)

	// The cold retrain parks with 16 requests in its snapshot.
	type ingestResult struct {
		retrained bool
		reason    string
		err       error
	}
	cold := make(chan ingestResult, 1)
	go func() {
		retrained, reason, err := s.Ingest(regimeTrace(16, []int{0, 1, 2}, 0))
		cold <- ingestResult{retrained, reason, err}
	}()
	<-entered

	var second ingestResult
	returns(t, "a second Ingest", func() {
		second.retrained, second.reason, second.err = s.Ingest(regimeTrace(8, []int{0, 1, 2}, 16))
	})
	if second != (ingestResult{}) {
		t.Fatalf("automatic trigger beside a retrain in flight = %+v, want (false, \"\", nil)", second)
	}
	if got := s.metrics.retrainBusySkips.Value(); got != 1 {
		t.Fatalf("busy skips = %d, want 1", got)
	}
	returns(t, "BreakerOpen", func() { s.BreakerOpen() })
	var health, scrape *httptest.ResponseRecorder
	returns(t, "/healthz", func() {
		health = httptest.NewRecorder()
		s.Handler().ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	})
	returns(t, "/metrics", func() {
		scrape = httptest.NewRecorder()
		s.Handler().ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	})
	if health.Code != http.StatusOK || !strings.Contains(health.Body.String(), `"warm":false`) {
		t.Fatalf("/healthz beside the cold retrain = %d %s, want 200 and not yet warm", health.Code, health.Body)
	}
	if scrape.Code != http.StatusOK || !strings.Contains(scrape.Body.String(), "dcmodeld_window_requests 24\n") {
		t.Fatalf("/metrics beside the cold retrain = %d, want 200 and a window of 24", scrape.Code)
	}

	// A manual Retrain queues behind the parked one. Whether it is already
	// waiting or only arrives later, it runs second: on the window of 24.
	forced := make(chan error, 1)
	go func() { forced <- s.Retrain() }()
	release <- struct{}{}
	if got := <-cold; got != (ingestResult{true, ReasonCold, nil}) {
		t.Fatalf("cold ingest = %+v, want its own retrain reported", got)
	}
	<-entered
	if ms := s.model.Load(); ms == nil || ms.TrainedOn != 16 || ms.TotalAt != 16 {
		t.Fatalf("generation installed by the cold retrain = %+v, want trained on the 16 of its snapshot", ms)
	}
	release <- struct{}{}
	if err := <-forced; err != nil {
		t.Fatalf("Retrain behind a retrain in flight: %v", err)
	}
	good := s.model.Load()
	if good.TrainedOn != 24 || good.TotalAt != 24 {
		t.Fatalf("generation installed by the waiting Retrain: trained on %d at %d, want the later window of 24", good.TrainedOn, good.TotalAt)
	}

	// Poison the window. The transitions it brings are the accumulator's
	// state "before"; a failed retrain must leave them, plus what arrives
	// while it is parked.
	if _, _, err := ingestUnchecked(s, poisoned(64, 100)); err != nil {
		t.Fatal(err)
	}
	before := driftTransitions(s)
	if before != 64*3 {
		t.Fatalf("transitions before the failing retrain = %d, want %d", before, 64*3)
	}
	for attempt := 1; attempt <= cfg.BreakerThreshold; attempt++ {
		go func() { forced <- s.Retrain() }()
		<-entered
		if got := driftTransitions(s); got != 0 {
			t.Fatalf("attempt %d: the accumulator beside a retrain holds %d transitions, want a fresh one", attempt, got)
		}
		if _, _, err := ingestUnchecked(s, poisoned(8, int64(200+8*attempt))); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if err := <-forced; err == nil {
			t.Fatalf("attempt %d: retrain on a poisoned window succeeded", attempt)
		}
		if got, want := driftTransitions(s), before+int64(8*3*attempt); got != want {
			t.Fatalf("attempt %d: transitions after the failed retrain = %d, want %d", attempt, got, want)
		}
		if s.model.Load() != good {
			t.Fatalf("attempt %d: a failed retrain swapped the served generation", attempt)
		}
	}
	if open, _ := s.BreakerOpen(); !open {
		t.Fatalf("breaker closed after %d failed retrains", cfg.BreakerThreshold)
	}
	if got := s.metrics.breakerTrips.Value(); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
}

// modelDigests is the "same model" measure of TestTrainedModelDigests: the
// sha256 of each model as saved.
func modelDigests(t *testing.T, kz *kooza.Model, ib *inbreadth.Model, id *indepth.Model) [3]string {
	t.Helper()
	var out [3]string
	for i, save := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return kooza.Save(b, kz) },
		func(b *bytes.Buffer) error { return inbreadth.Save(b, ib) },
		func(b *bytes.Buffer) error { return indepth.Save(b, id) },
	} {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return out
}

// TestRetrainFanOutMatchesSerial: the models a generation serves — KOOZA
// fitted by the retrain beside the drift reference, the comparison models on
// first use — are the ones the three trainers fit one after another on the
// same snapshot, on every preset at a full default window.
func TestRetrainFanOutMatchesSerial(t *testing.T) {
	for _, name := range spec.Names() {
		t.Run(name, func(t *testing.T) {
			preset, err := spec.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := preset.Compile(spec.Options{Requests: 8192, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := compiled.Generate(0)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, quietConfig())
			if _, _, err := s.Ingest(tr); err != nil {
				t.Fatal(err)
			}
			if err := s.Retrain(); err != nil {
				t.Fatal(err)
			}
			kz, ib, id, trainedOn := s.Models()
			if trainedOn != 8192 {
				t.Fatalf("trained on %d requests, want 8192", trainedOn)
			}

			prep, err := trace.Prepare(s.win.snapshot())
			if err != nil {
				t.Fatal(err)
			}
			cfg := s.cfg
			wantKz, err := kooza.TrainPrepared(prep, kooza.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing})
			if err != nil {
				t.Fatal(err)
			}
			wantIb, err := inbreadth.TrainPrepared(prep, inbreadth.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing})
			if err != nil {
				t.Fatal(err)
			}
			wantId, err := indepth.TrainPrepared(prep)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := modelDigests(t, kz, ib, id), modelDigests(t, wantKz, wantIb, wantId); got != want {
				t.Errorf("served (kooza, in-breadth, in-depth) digests\n got %v\nwant %v", got, want)
			}
		})
	}
}
