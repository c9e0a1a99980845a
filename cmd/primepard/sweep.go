// POST /v1/plan/sweep — portfolio planning. A sweep plans a whole scale
// curve (device counts, α values, layer counts, batch sizes) in ONE request
// holding ONE admission slot, sharing search intermediates through the
// server's SearchCache: later points reuse the node evaluations, edge
// matrices, layer DP tables and finished plans earlier points (or earlier
// requests) inserted. A layer-count point runs stacking only and an
// identical one no DP at all, so a 4-point curve costs far less than 4
// independent cold plans — while every point's strategy and digest stays
// byte-identical to what an individual /v1/plan of that point returns
// (pinned by the delta-equivalence fuzz in internal/core and by the CI
// smoke's digest diff).
//
// Failure semantics: an invalid point (bad devices, unknown field values)
// sheds THAT point — its slot in results carries the uniform error envelope
// — and the sweep continues. Context cancellation or the request deadline
// expiring fails the whole sweep (499/504), since the remaining points could
// only be partial. Between points the admission deadline policy is
// re-checked, so a sweep that outlives its client shed its tail instead of
// searching it. Sweeps do not join the singleflight group: portfolios differ
// too often for dedup to pay, and the per-point cache sharing already
// collapses the duplicated work.
package main

import (
	"context"
	"net/http"
	"time"

	"repro/internal/core"
)

// maxSweepPoints bounds one portfolio; larger curves should be split so the
// admission gate can interleave other traffic between them.
const maxSweepPoints = 64

// SweepPoint overrides a subset of the base request's dimensions for one
// portfolio point. Zero-valued (for Alpha: absent) fields inherit the base
// request; any other value, a negative one included, replaces it and is
// validated like a /v1/plan field, so a bad value fails its point.
type SweepPoint struct {
	Devices        int      `json:"devices,omitempty"`
	DevicesPerNode int      `json:"devices_per_node,omitempty"`
	Profile        string   `json:"profile,omitempty"`
	Alpha          *float64 `json:"alpha,omitempty"`
	Layers         int      `json:"layers,omitempty"`
	Batch          int      `json:"batch,omitempty"`
	// Pipeline replaces the base request's `pipeline` object for this point
	// (it cannot remove one: an absent field inherits the base, like every
	// other dimension). Points may mix plain and joint plans only when the
	// base itself has no pipeline object.
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
}

// SweepRequest is the /v1/plan/sweep input: a base PlanRequest (flat, same
// fields as /v1/plan) plus the portfolio points.
type SweepRequest struct {
	PlanRequest
	Points []SweepPoint `json:"points"`
}

// SweepPointResult is one point's outcome, in request order: either the full
// plan or the uniform error envelope, never both. DeltaDims names the
// dimensions on which the resolved point differs from the resolved base —
// the "changed frontier" the delta re-planner worked over.
type SweepPointResult struct {
	Point     SweepPoint     `json:"point"`
	DeltaDims []string       `json:"delta_dims,omitempty"`
	Plan      *PlanResponse  `json:"plan,omitempty"`
	Error     *errorEnvelope `json:"error,omitempty"`
}

// SweepResponse is the /v1/plan/sweep output.
type SweepResponse struct {
	Model   string             `json:"model"`
	Results []SweepPointResult `json:"results"`
	Planned int                `json:"planned"`
	Failed  int                `json:"failed"`
	// Totals sums the planned points' search stats (core.SearchStats.Add)
	// — the headline numbers for "how much did sharing save": compare
	// node_evals and seg_tables_built against what the same points cost
	// individually cold.
	Totals    core.SearchStats `json:"totals"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// envelopeOf renders an apiError as the uniform JSON envelope (the same
// shape writeError sends top-level, embedded per point here).
func envelopeOf(e *apiError) *errorEnvelope {
	return &errorEnvelope{
		Code:         e.code,
		Message:      e.message,
		Retryable:    e.retryable,
		RetryAfterMS: e.retryAfter.Milliseconds(),
	}
}

// deltaDims lists the dimensions on which two RESOLVED requests differ.
// Resolved requests always carry a concrete α (preparePlan normalizes the
// pointer), so the comparison dereferences — comparing the pointers
// themselves would flag every point as an α delta.
func deltaDims(base, pt *PlanRequest) []string {
	var d []string
	if pt.Devices != base.Devices {
		d = append(d, "devices")
	}
	if pt.DevicesPerNode != base.DevicesPerNode {
		d = append(d, "devices_per_node")
	}
	if pt.Profile != base.Profile {
		d = append(d, "profile")
	}
	if *pt.Alpha != *base.Alpha {
		d = append(d, "alpha")
	}
	if pt.Layers != base.Layers {
		d = append(d, "layers")
	}
	if pt.Batch != base.Batch {
		d = append(d, "batch")
	}
	if pt.Pipeline.key() != base.Pipeline.key() {
		d = append(d, "pipeline")
	}
	return d
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed,
			code: "method_not_allowed", message: "POST a SweepRequest JSON body"})
		return
	}
	req, aerr := decodeSweep(w, r)
	if aerr != nil {
		s.planErrors.Add(1)
		writeError(w, aerr)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMS))
	defer cancel()
	ctx = context.WithValue(ctx, priorityCtxKey{}, req.Priority)

	resp, aerr := s.sweep(ctx, req)
	if aerr != nil {
		s.planErrors.Add(1)
		writeError(w, aerr)
		return
	}
	s.sweeps.Add(1)
	s.sweepPointsPlanned.Add(int64(resp.Planned))
	s.sweepPointsFailed.Add(int64(resp.Failed))
	s.countSearch(resp.Totals)
	writeJSON(w, http.StatusOK, resp)
}

// decodeSweep strictly decodes a sweep body and bounds its point count.
func decodeSweep(w http.ResponseWriter, r *http.Request) (*SweepRequest, *apiError) {
	var req SweepRequest
	if aerr := decodeStrict(w, r, &req); aerr != nil {
		return nil, aerr
	}
	if len(req.Points) == 0 {
		return nil, badRequest("sweep needs at least one point")
	}
	if len(req.Points) > maxSweepPoints {
		return nil, badRequest("sweep has %d points, max %d", len(req.Points), maxSweepPoints)
	}
	return &req, nil
}

// over returns base with p's overrides applied.
func (p SweepPoint) over(base PlanRequest) PlanRequest {
	if p.Devices != 0 {
		base.Devices = p.Devices
	}
	if p.DevicesPerNode != 0 {
		base.DevicesPerNode = p.DevicesPerNode
	}
	if p.Profile != "" {
		base.Profile = p.Profile
	}
	if p.Alpha != nil {
		base.Alpha = p.Alpha
	}
	if p.Layers != 0 {
		base.Layers = p.Layers
	}
	if p.Batch != 0 {
		base.Batch = p.Batch
	}
	if p.Pipeline != nil {
		base.Pipeline = p.Pipeline
	}
	return base
}

// sweep resolves every point against the base request, admits the whole
// portfolio as one unit, and plans the points sequentially over the shared
// cache.
func (s *server) sweep(ctx context.Context, req *SweepRequest) (*SweepResponse, *apiError) {
	// The base must itself resolve — model, devices, defaults — so every
	// point inherits a validated starting request and a normalized baseline
	// for delta_dims.
	base, aerr := s.preparePlan(&req.PlanRequest)
	if aerr != nil {
		return nil, aerr
	}

	start := time.Now()
	resp := &SweepResponse{Model: base.cfg.Name, Results: make([]SweepPointResult, len(req.Points))}
	jobs := make([]*planJob, len(req.Points))
	var totalWork float64
	allWarm := true
	for i, p := range req.Points {
		resp.Results[i].Point = p
		pr := p.over(req.PlanRequest)
		job, aerr := s.preparePlan(&pr)
		if aerr != nil {
			// A bad point sheds the point, not the sweep.
			resp.Results[i].Error = envelopeOf(aerr)
			resp.Failed++
			continue
		}
		resp.Results[i].DeltaDims = deltaDims(&base.req, &job.req)
		jobs[i] = job
		if !job.est.Warm {
			allWarm = false
		}
		totalWork += job.est.Work
	}

	// One admission slot covers the whole portfolio (admission.go header).
	release, aerr := s.adm.admit(ctx, allWarm, s.adm.pred.predict(totalWork), ctxDeadline(ctx))
	if aerr != nil {
		return nil, aerr
	}
	if release == nil {
		return nil, s.asAPIError(ctx.Err())
	}
	defer release()

	for i, job := range jobs {
		if job == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, s.asAPIError(err) // the whole sweep dies with its context
		}
		// Re-estimate: earlier points warmed the cache, so the prepare-time
		// estimate overstates what THIS point still has to do. The fresh
		// estimate keeps the predictor's teaching signal honest and the
		// deadline re-check tight.
		est, err := job.estimate()
		if err != nil {
			resp.Results[i].Error = envelopeOf(s.asAPIError(err))
			resp.Failed++
			continue
		}
		if aerr := s.adm.unmeetable(s.adm.pred.predict(est.Work), ctxDeadline(ctx)); aerr != nil {
			resp.Results[i].Error = envelopeOf(aerr)
			resp.Failed++
			continue
		}
		plan, err := s.search(ctx, job, est)
		if err != nil {
			if isCancellation(err) {
				return nil, s.asAPIError(err)
			}
			resp.Results[i].Error = envelopeOf(s.asAPIError(err))
			resp.Failed++
			continue
		}
		resp.Results[i].Plan = plan
		resp.Planned++
		resp.Totals.Add(plan.Stats)
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}
