package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
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

// maybeRetrain runs the online-training decision and, when it asks for one,
// the retrain. It returns whether a retrain happened and why; the caller
// waits for the training it triggered, so that its reply can say how it
// went. A retrain already in flight is left to finish: the call returns at
// once with nothing done. span is the caller's sampled trace span (nil
// outside a sampled request — the poll loop and programmatic callers pass
// nil, which also keeps sampled trace shapes deterministic for a fixed
// request sequence). Callers do not hold ingestMu.
func (s *Server) maybeRetrain(span *obs.LiveSpan) (bool, string, error) {
	s.ingestMu.Lock()
	var job *retrainJob
	if s.retraining {
		s.metrics.retrainBusySkips.Add(1)
	} else if reason := s.retrainReasonLocked(span); reason != "" {
		job = s.beginRetrainLocked(reason, span)
	}
	s.ingestMu.Unlock()
	if job == nil {
		return false, "", nil
	}
	ok, err := s.retrain(job)
	if ok && job.reason == ReasonDrift {
		// Closed loop: the workload changed enough to swap the model, so
		// the provisioning answer may have too.
		s.maybeAutoProvision()
	}
	return ok, job.reason, err
}

// retrainReasonLocked is the online-training decision: the reason to retrain
// now, or "" for none. Callers hold ingestMu.
func (s *Server) retrainReasonLocked(span *obs.LiveSpan) string {
	n, _, total, _ := s.win.stats()
	if n < minTrainRequests {
		return ""
	}
	if time.Now().Before(s.breakerUntil) {
		// Breaker open: a run of failed retrains (e.g. a poisoned window)
		// must not wedge the poll loop into retraining — and failing —
		// once a second. The last good generation keeps serving; the
		// first trigger past the cooldown is the half-open probe.
		return ""
	}
	ms := s.model.Load()
	if ms == nil {
		// Cold start: become warm at the first trainable window rather
		// than waiting out RetrainMin.
		return ReasonCold
	}
	newSince := total - ms.TotalAt
	if newSince < int64(s.cfg.RetrainMin) {
		return ""
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
				return ReasonDrift
			}
		}
	}
	// Staleness trigger: enough fresh data and an old model.
	if time.Since(ms.TrainedAt) >= s.cfg.RetrainInterval {
		s.metrics.staleRetrains.Add(1)
		return ReasonStale
	}
	return ""
}

// Retrain forces a retrain from the current window regardless of drift,
// staleness or an open circuit breaker (the manual probe path). It waits
// for a retrain in flight to finish and then runs its own.
func (s *Server) Retrain() error {
	s.ingestMu.Lock()
	for s.retraining {
		s.retrainIdle.Wait()
	}
	job := s.beginRetrainLocked(ReasonForce, nil)
	s.ingestMu.Unlock()
	_, err := s.retrain(job)
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

// retrainJob is one retrain between its two holds of ingestMu: what the
// first hold took from the daemon's state, for training to read with no
// lock held.
type retrainJob struct {
	reason string
	span   *obs.LiveSpan // the train:<reason> span
	// snap and total are the window and its monotone total as of one
	// instant: the generation is trained on the one and dated by the other.
	snap  *trace.Trace
	total int64
	// drift holds the transitions observed up to the snapshot. A retrain
	// that succeeds drops them (the fresh reference has seen them); one
	// that fails gives them back.
	drift *markov.Accumulator
	// park is the test seam of Server.parkTrainer, read under the lock.
	park func()
}

// beginRetrainLocked is the first step of a retrain: it claims the one
// training slot, copies the window out and detaches the drift accumulator,
// leaving an empty one for the transitions that arrive while the models are
// fitted. Callers hold ingestMu and have seen s.retraining false.
func (s *Server) beginRetrainLocked(reason string, span *obs.LiveSpan) *retrainJob {
	s.retraining = true
	_, _, total, _ := s.win.stats()
	job := &retrainJob{
		reason: reason,
		span:   span.Child("train:" + reason),
		snap:   s.win.snapshot(),
		total:  total,
		drift:  s.drift,
		park:   s.parkTrainer,
	}
	s.drift, s.spareDrift = s.spareDrift, nil
	return job
}

// train is the second step: it fits a model generation to the job's
// snapshot with no lock held, so ingestion, /healthz and /metrics go on
// beside it. The three models and the drift reference read one prepared
// input and nothing of each other, so they are fitted side by side, on
// goroutines of their own rather than on the work queue, whose bounded
// depth belongs to the readers. Their stage spans are opened here, in a
// fixed order, before any of them starts: a sampled retrain has the same
// tree whichever finishes first.
func (s *Server) train(job *retrainJob) (*modelSet, error) {
	defer job.span.End()
	if job.park != nil {
		job.park()
	}
	// Preparing the shared input is part of the first trainer's stage.
	stopKooza := s.stage(job.span, "train.kooza")
	prep, err := trace.Prepare(job.snap)
	if err != nil {
		stopKooza()
		return nil, err
	}
	stopInBreadth := s.stage(job.span, "train.inbreadth")
	stopInDepth := s.stage(job.span, "train.indepth")
	stopRef := s.stage(job.span, "train.ref")
	ms := &modelSet{TrainedOn: job.snap.Len(), TotalAt: job.total}
	var errKooza, errInBreadth, errInDepth, errRef error
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer stopInBreadth()
		ms.InBreadth, errInBreadth = inbreadth.TrainPrepared(prep, inbreadth.Options{
			StorageRegions: s.cfg.StorageRegions,
			DiskBlocks:     s.cfg.DiskBlocks,
			Smoothing:      s.cfg.Smoothing,
		})
	}()
	go func() {
		defer wg.Done()
		defer stopInDepth()
		ms.InDepth, errInDepth = indepth.TrainPrepared(prep)
	}()
	go func() {
		defer wg.Done()
		defer stopRef()
		ms.RefStorage, errRef = s.pooledStorageChain(job.snap)
	}()
	ms.Kooza, errKooza = kooza.TrainPrepared(prep, kooza.Options{
		StorageRegions: s.cfg.StorageRegions,
		DiskBlocks:     s.cfg.DiskBlocks,
		Smoothing:      s.cfg.Smoothing,
	})
	stopKooza()
	wg.Wait()
	// The first failure in the order the trainers used to run in, so that a
	// window several of them refuse is reported as it always was.
	for _, err := range []error{errKooza, errInBreadth, errInDepth, errRef} {
		if err != nil {
			return nil, err
		}
	}
	// The refreeze hook: trained chains arrive frozen, but freezing again
	// here guarantees the invariant for model generations assembled any
	// other way (e.g. loaded from disk in a future snapshot-restore path).
	stop := s.stage(job.span, "refreeze")
	ms.Kooza.Refreeze()
	stop()
	return ms, nil
}

// retrain runs a begun job to its end. The third step, under ingestMu
// again: install the generation train fitted, or on failure leave the
// previous one serving, give the detached transitions back and count toward
// the circuit breaker. Either way the training slot is freed.
func (s *Server) retrain(job *retrainJob) (bool, error) {
	ms, err := s.train(job)
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.retraining = false
	s.retrainIdle.Broadcast()
	if err != nil {
		// Same state count and smoothing: Merge cannot fail.
		_ = s.drift.Merge(job.drift)
	}
	job.drift.Reset()
	s.spareDrift = job.drift
	if err != nil {
		s.metrics.retrainErrors.Add(1)
		s.retrainFails++
		if s.retrainFails >= s.cfg.BreakerThreshold {
			s.breakerUntil = time.Now().Add(s.cfg.BreakerCooldown)
			s.retrainFails = 0
			s.metrics.breakerTrips.Add(1)
		}
		return false, fmt.Errorf("serve: retrain (%s): %w", job.reason, err)
	}
	// The drift window restarted at the snapshot, against the fresh
	// reference; a success closes the breaker.
	ms.TrainedAt = time.Now()
	s.model.Store(ms)
	s.retrainFails = 0
	s.breakerUntil = time.Time{}
	s.metrics.retrains.Add(1)
	s.metrics.modelTrainedOn.Set(float64(ms.TrainedOn))
	return true, nil
}

// storageRegions appends the storage-region sequence of one request to dst:
// the LBN of each storage span under the daemon's fixed quantization.
func (s *Server) storageRegions(dst []int, spans []trace.Span) []int {
	for i := range spans {
		if spans[i].Subsystem == trace.Storage {
			dst = append(dst, s.regionOf(spans[i].LBN))
		}
	}
	return dst
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
	for i := range tr.Requests {
		seq = s.storageRegions(seq[:0], tr.Requests[i].Spans)
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
