// Plan is the single search entrypoint: one ctx-first call taking one
// request value runs the exact segmented DP (paper §5), which returns the
// optimum of the cost model over the whole candidate space.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// MaxPlanDevices is the widest machine the exact search plans: its work
// grows ~15× per doubling of the devices (a cold OPT-175B search takes
// ~37 s and ~3.1 GB at 64, DESIGN.md §5.22). Plan, EstimatePlan and
// Exhaustive reject a wider machine, and pipeline's Plan3D wider stages,
// before enumerating any candidate.
const MaxPlanDevices = 64

// ErrTooManyDevices is wrapped by every error the device limit raises.
var ErrTooManyDevices = errors.New("too many devices for the exact search")

// checkDevices rejects a machine wider than MaxPlanDevices.
func (o *Optimizer) checkDevices() error {
	if n := o.Cost.Cluster.NumDevices; n > MaxPlanDevices {
		return fmt.Errorf("core: %w: %d devices, limit %d", ErrTooManyDevices, n, MaxPlanDevices)
	}
	return nil
}

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
	if err := o.checkDevices(); err != nil {
		return nil, err
	}
	return o.search(ctx, req.Graph, req.Layers)
}
