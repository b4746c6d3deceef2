package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/markov"
	"dcmodel/internal/obs"
	"dcmodel/internal/trace"
)

// minTrainRequests is the hard floor below which no trainer can fit an
// arrival process.
const minTrainRequests = 3

// driftMinRowCount is the per-row observation floor of the chi-square
// drift test (the classic >= 5 expected-per-cell rule applied to rows).
const driftMinRowCount = 5

// Retrain reasons, reported in ingest responses and counted in /metrics.
const (
	ReasonCold  = "cold"  // no model served yet
	ReasonDrift = "drift" // chi-square drift trigger fired
	ReasonStale = "stale" // staleness bound exceeded with fresh data
	ReasonForce = "force" // explicit Retrain() call
)

// maybeRetrainLocked runs the online-training decision. Callers hold
// ingestMu. It returns whether a retrain happened and why. span is the
// caller's sampled trace span (nil outside a sampled request — the poll
// loop and programmatic callers pass nil, which also keeps sampled trace
// shapes deterministic for a fixed request sequence).
func (s *Server) maybeRetrainLocked(span *obs.LiveSpan) (bool, string, error) {
	n, _, total, _ := s.win.stats()
	if n < minTrainRequests {
		return false, "", nil
	}
	if time.Now().Before(s.breakerUntil) {
		// Breaker open: a run of failed retrains (e.g. a poisoned window)
		// must not wedge the poll loop into retraining — and failing —
		// once a second. The last good generation keeps serving; the
		// first trigger past the cooldown is the half-open probe.
		return false, "", nil
	}
	ms := s.model.Load()
	if ms == nil {
		// Cold start: become warm at the first trainable window rather
		// than waiting out RetrainMin.
		return s.retrainLocked(ReasonCold, span)
	}
	newSince := total - ms.TotalAt
	if newSince < int64(s.cfg.RetrainMin) {
		return false, "", nil
	}
	// Drift trigger: compare the transitions observed since the last
	// retrain against the served pooled storage chain.
	if ms.RefStorage != nil && s.drift.Transitions() >= s.cfg.DriftMinTransitions {
		res, err := markov.Drift(ms.RefStorage, s.drift, driftMinRowCount)
		if err == nil {
			s.metrics.setDrift(res.Statistic, res.P)
			if res.P < s.cfg.DriftP {
				s.metrics.driftRetrains.Add(1)
				span.Annotate("drift: stat=%g p=%g", res.Statistic, res.P)
				ok, reason, err := s.retrainLocked(ReasonDrift, span)
				if ok {
					// Closed loop: the workload changed enough to swap the
					// model, so the provisioning answer may have too.
					s.maybeAutoProvision()
				}
				return ok, reason, err
			}
		}
	}
	// Staleness trigger: enough fresh data and an old model.
	if time.Since(ms.TrainedAt) >= s.cfg.RetrainInterval {
		s.metrics.staleRetrains.Add(1)
		return s.retrainLocked(ReasonStale, span)
	}
	return false, "", nil
}

// Retrain forces a retrain from the current window regardless of drift,
// staleness or an open circuit breaker (the manual probe path).
func (s *Server) Retrain() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	_, _, err := s.retrainLocked(ReasonForce, nil)
	return err
}

// BreakerOpen reports whether the retrain circuit breaker is currently
// suppressing automatic retrains, and until when.
func (s *Server) BreakerOpen() (bool, time.Time) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	until := s.breakerUntil
	return time.Now().Before(until), until
}

// retrainLocked trains a fresh model generation from the window snapshot
// and swaps it in. On failure the previous generation keeps serving and
// the failure counts toward the circuit breaker. Callers hold ingestMu.
func (s *Server) retrainLocked(reason string, span *obs.LiveSpan) (bool, string, error) {
	trainSpan := span.Child("train:" + reason)
	defer trainSpan.End()
	snap := s.win.snapshot()
	fail := func(err error) (bool, string, error) {
		s.metrics.retrainErrors.Add(1)
		s.retrainFails++
		if s.retrainFails >= s.cfg.BreakerThreshold {
			s.breakerUntil = time.Now().Add(s.cfg.BreakerCooldown)
			s.retrainFails = 0
			s.metrics.breakerTrips.Add(1)
		}
		return false, reason, fmt.Errorf("serve: retrain (%s): %w", reason, err)
	}
	// The three trainers share one prepared input; preparing it is part of
	// the first trainer's stage.
	stop := s.stage(trainSpan, "train.kooza")
	var kz *kooza.Model
	prep, err := trace.Prepare(snap)
	if err == nil {
		kz, err = kooza.TrainPrepared(prep, kooza.Options{
			StorageRegions: s.cfg.StorageRegions,
			DiskBlocks:     s.cfg.DiskBlocks,
			Smoothing:      s.cfg.Smoothing,
		})
	}
	stop()
	if err != nil {
		return fail(err)
	}
	stop = s.stage(trainSpan, "train.inbreadth")
	ib, err := inbreadth.TrainPrepared(prep, inbreadth.Options{
		StorageRegions: s.cfg.StorageRegions,
		DiskBlocks:     s.cfg.DiskBlocks,
		Smoothing:      s.cfg.Smoothing,
	})
	stop()
	if err != nil {
		return fail(err)
	}
	stop = s.stage(trainSpan, "train.indepth")
	id, err := indepth.TrainPrepared(prep)
	stop()
	if err != nil {
		return fail(err)
	}
	stop = s.stage(trainSpan, "train.ref")
	ref, err := s.pooledStorageChain(snap)
	stop()
	if err != nil {
		return fail(err)
	}
	// The refreeze hook: trained chains arrive frozen, but freezing again
	// here guarantees the invariant for model generations assembled any
	// other way (e.g. loaded from disk in a future snapshot-restore path).
	stop = s.stage(trainSpan, "refreeze")
	kz.Refreeze()
	stop()
	_, _, total, _ := s.win.stats()
	s.model.Store(&modelSet{
		Kooza:      kz,
		InBreadth:  ib,
		InDepth:    id,
		RefStorage: ref,
		TrainedAt:  time.Now(),
		TrainedOn:  snap.Len(),
		TotalAt:    total,
	})
	// Fresh drift window against the fresh reference; a success closes
	// the breaker.
	s.drift.Reset()
	s.retrainFails = 0
	s.breakerUntil = time.Time{}
	s.metrics.retrains.Add(1)
	s.metrics.modelTrainedOn.Set(float64(snap.Len()))
	return true, reason, nil
}

// pooledStorageChain trains the class-blind storage-region chain the
// drift test uses as its reference, with the same fixed quantization the
// ingest path applies.
func (s *Server) pooledStorageChain(tr *trace.Trace) (*markov.Chain, error) {
	acc, err := markov.NewAccumulator(s.cfg.StorageRegions, s.cfg.Smoothing)
	if err != nil {
		return nil, err
	}
	seq := make([]int, 0, 8)
	for _, r := range tr.Requests {
		seq = seq[:0]
		for _, sp := range r.Spans {
			if sp.Subsystem == trace.Storage {
				seq = append(seq, s.regionOf(sp.LBN))
			}
		}
		if len(seq) > 0 {
			if err := acc.Observe(seq); err != nil {
				return nil, err
			}
		}
	}
	ch, err := acc.Chain()
	if err == markov.ErrNoData {
		// A window without storage spans cannot drift on storage; serve
		// without a reference (drift trigger stays quiet).
		return nil, nil
	}
	return ch, err
}

// Serve runs the daemon's HTTP server on ln until ctx is cancelled (the
// SIGTERM path of cmd/dcmodeld), then drains gracefully: the listener
// stops accepting, every in-flight request finishes, and the work queue
// is run dry before Serve returns. Returns the first serve error, or nil
// after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
		close(errc)
	}()
	select {
	case err, ok := <-errc:
		if ok && err != nil {
			s.Close()
			return err
		}
		s.Close()
		return nil
	case <-ctx.Done():
	}
	// Graceful drain: in-flight HTTP requests first, then the queue.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*s.cfg.RequestTimeout)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	s.Close()
	return err
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
