// Plan is the single search entrypoint: one ctx-first call taking one
// request value runs the exact segmented DP (paper §5), which returns the
// optimum of the cost model over the whole candidate space.
package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// PlanRequest describes one strategy search: the layer graph and the stacked
// layer count.
type PlanRequest struct {
	// Graph is the representative layer graph (model.BuildBlock).
	Graph *graph.Graph
	// Layers is the stacked layer count (≥ 1).
	Layers int
}

// Plan searches req.Graph and stacks req.Layers identical layers, returning
// the optimal strategy for a representative layer and the stacked total cost.
// Cancellation is checked at coarse, value-independent points — between pool
// task pulls, per Bellman step, per merge, between stages — so an
// uncancelled search is bit-identical to an uncancellable one, while a
// cancelled search returns ctx.Err() promptly and publishes nothing partial
// to the shared cross-call cache.
func (o *Optimizer) Plan(ctx context.Context, req PlanRequest) (*Strategy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("core: PlanRequest.Graph is nil")
	}
	return o.search(ctx, req.Graph, req.Layers)
}
