package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dcmodel/internal/errs"
	"dcmodel/internal/obs"
	"dcmodel/internal/optimize"
	"dcmodel/internal/sqs"
	"dcmodel/internal/twin"
)

// provisionRequest is the JSON body of POST /v1/provision: which warm
// model's twin drives the search, plus the shared optimizer request. The
// daemon provisions for its ingested window, so the embedded request's
// offline-only fields (Spec, Model) are rejected.
type provisionRequest struct {
	Model   string           `json:"model"`
	Request optimize.Request `json:"request"`
}

// provisionResponse is the JSON shape of /v1/provision, mirroring the
// /v1/whatif envelope: the same model/trained_on header, the (defaulted)
// request echoed back, and the plan where whatif carries the answer.
// Saturation and infeasibility are in-band (plan.feasible), never errors.
type provisionResponse struct {
	Model     string           `json:"model"`
	TrainedOn int              `json:"trained_on"`
	Request   optimize.Request `json:"request"`
	Plan      optimize.Plan    `json:"plan"`
}

// compileProvisionTwins lowers one warm model onto every platform of the
// search space. Unlike compileTwin — which answers about the daemon's own
// configured hardware — the provisioning search explores the optimizer's
// platform catalog. Both draw on the generation's compile-once table.
func (s *Server) compileProvisionTwins(ms *modelSet, model string, space optimize.Space) (map[string]*twin.Twin, error) {
	space = optimize.SpaceDefaults(space)
	twins := make(map[string]*twin.Twin, len(space.Platforms))
	for _, name := range space.Platforms {
		pspec, ok := optimize.PlatformByName(name)
		if !ok {
			return nil, badRequestf("unknown platform %q", name)
		}
		tw, err := s.twinOn(ms, name, pspec.NewServer, model)
		if err != nil {
			return nil, err
		}
		twins[name] = tw
	}
	return twins, nil
}

func badRequestf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errs.ErrBadConfig)...)
}

// runProvision is the shared search body of the handler and the
// auto-reprovision hook: compile the per-platform twins, characterize the
// current window into the DES farm model, and run the twin-first search.
// Stage spans provision.compile / provision.characterize /
// provision.search hang under span.
func (s *Server) runProvision(ctx context.Context, span *obs.LiveSpan, ms *modelSet, model string, req optimize.Request) (optimize.Plan, error) {
	req = req.WithDefaults()
	stop := s.stage(span, "provision.compile")
	twins, err := s.compileProvisionTwins(ms, model, req.Space)
	stop()
	if err != nil {
		return optimize.Plan{}, err
	}
	stop = s.stage(span, "provision.characterize")
	var des *sqs.Model
	snap := s.win.snapshot()
	if snap.Len() > 0 {
		des, err = optimize.NewDESModel(snap, req)
	}
	stop()
	if err != nil {
		return optimize.Plan{}, err
	}
	stop = s.stage(span, "provision.search")
	plan, err := optimize.Search(ctx, optimize.Input{Twins: twins, DES: des}, req)
	stop()
	if err == nil {
		s.metrics.provisions.Add(1)
	}
	span.Annotate("feasible=%t chosen=%d evals=%d", plan.Feasible, plan.Chosen.Servers, plan.TwinEvals)
	return plan, err
}

// handleProvision runs the provisioning optimizer against the warm models
// and the ingested window. POST runs a search (riding the bounded work
// queue — a search costs twin sweeps plus DES validation runs, far beyond
// the what-if fast path); GET returns the last auto-reprovision plan.
//
// An infeasible space answers 200 with plan.feasible == false — the
// in-band convention /v1/whatif uses for saturation — because "nothing
// fits" is a valid answer carrying a full audit trail, not a failure.
func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		last := s.autoPlan.Load()
		if last == nil {
			httpError(w, http.StatusNotFound, "no auto-reprovision plan yet")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(last)
		return
	case http.MethodPost:
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
		return
	}
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req provisionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Model == "" {
		req.Model = "kooza"
	}
	if req.Request.Spec != "" || req.Request.Model != "" {
		httpError(w, http.StatusBadRequest,
			"spec/model are offline-only fields: the daemon provisions for its ingested window (select the model with the top-level model field)")
		return
	}
	ms := s.model.Load()
	if ms == nil {
		httpError(w, http.StatusServiceUnavailable, "%v: ingest a trace first", errs.ErrModelNotTrained)
		return
	}
	span := obs.SpanFrom(r.Context())
	waitStop := s.stage(span, "queue.wait")
	s.enqueue(w, r, func(ctx context.Context) func(http.ResponseWriter) {
		waitStop()
		plan, err := s.runProvision(ctx, span, ms, req.Model, req.Request)
		if err != nil && !errors.Is(err, errs.ErrNoFeasibleConfig) {
			return func(w http.ResponseWriter) {
				code := http.StatusInternalServerError
				if errors.Is(err, errs.ErrBadConfig) {
					code = http.StatusBadRequest
				}
				httpError(w, code, "provision: %v", err)
			}
		}
		resp := provisionResponse{
			Model:     req.Model,
			TrainedOn: ms.TrainedOn,
			Request:   req.Request.WithDefaults(),
			Plan:      plan,
		}
		return func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}
	})
}

// maybeAutoProvision fires the closed-loop reprovisioning hook: when the
// daemon was configured with an AutoProvision request and a drift-triggered
// retrain just swapped in a fresh model generation, the provisioning search
// re-runs in the background against the new generation, and the resulting
// plan is published on GET /v1/provision. Single-flight: a search already
// in progress is never stacked, the trigger is simply dropped (the next
// drift retrain re-fires it). Serving traffic is untouched — the search
// runs on its own goroutine, not the work queue, so in-flight requests
// neither wait for it nor get dropped by it.
func (s *Server) maybeAutoProvision() {
	if s.cfg.AutoProvision == nil || s.closed.Load() {
		return
	}
	ms := s.model.Load()
	if ms == nil {
		return
	}
	if !s.reprovisioning.CompareAndSwap(false, true) {
		return
	}
	req := *s.cfg.AutoProvision
	s.provWG.Add(1)
	go func() {
		defer s.provWG.Done()
		defer s.reprovisioning.Store(false)
		span := s.spanner.StartRequest("auto:provision", 0)
		plan, err := s.runProvision(context.Background(), span, ms, "kooza", req)
		span.Annotate("err=%v", err != nil)
		span.Finish()
		if err != nil && !errors.Is(err, errs.ErrNoFeasibleConfig) {
			s.metrics.provisionErrors.Add(1)
			return
		}
		s.metrics.autoProvisions.Add(1)
		s.autoPlan.Store(&provisionResponse{
			Model:     "kooza",
			TrainedOn: ms.TrainedOn,
			Request:   req.WithDefaults(),
			Plan:      plan,
		})
	}()
}

// LastAutoPlan returns the most recent auto-reprovision plan, or false when
// the hook has not produced one (programmatic sibling of GET /v1/provision).
func (s *Server) LastAutoPlan() (optimize.Plan, bool) {
	last := s.autoPlan.Load()
	if last == nil {
		return optimize.Plan{}, false
	}
	return last.Plan, true
}
