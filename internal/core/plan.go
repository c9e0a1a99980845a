// Plan is the single search entrypoint: every mode the optimizer supports —
// plain exact search, fixed-beam approximation, anytime beam-autotuned search
// under a wall-clock budget — runs through one ctx-first call taking one
// request value.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// PlanRequest describes one strategy search: the layer graph, the stacked
// layer count, and the search mode.
type PlanRequest struct {
	// Graph is the representative layer graph (model.BuildBlock).
	Graph *graph.Graph
	// Layers is the stacked layer count (≥ 1).
	Layers int
	// Budget, when positive, runs the anytime beam-autotuned search: beam
	// widths grow geometrically until the chosen strategy is provably exact,
	// stabilizes, or the budget is spent. Zero runs a single search honoring
	// Opts.Beam (exact when Beam is zero).
	Budget time.Duration
}

// Plan searches req.Graph and stacks req.Layers identical layers, returning
// the optimal strategy for a representative layer and the stacked total cost.
// Cancellation is checked at coarse, value-independent points — between pool
// task pulls, per Bellman step, per merge, between stages, per beam width —
// so an uncancelled search is bit-identical to an uncancellable one, while a
// cancelled search returns ctx.Err() promptly and publishes nothing partial
// to the shared cross-call cache.
func (o *Optimizer) Plan(ctx context.Context, req PlanRequest) (*Strategy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("core: PlanRequest.Graph is nil")
	}
	if req.Budget <= 0 {
		return o.searchOnce(ctx, req.Graph, req.Layers)
	}
	return o.searchBudget(ctx, req.Graph, req.Layers, req.Budget)
}
