// Plan is the single search entrypoint: one ctx-first call taking one
// request value runs the exact segmented DP (paper §5), which returns the
// optimum of the cost model over the whole candidate space, or over the
// subset a candidate mask keeps.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
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

// checkRequest is the one request check of Plan and EstimatePlan: a graph,
// a layer count ≥ 1, the device limit, a valid graph of at least two nodes,
// and the segmentation assumptions the layer DP rests on.
func (o *Optimizer) checkRequest(req PlanRequest) error {
	g := req.Graph
	if g == nil {
		return fmt.Errorf("core: PlanRequest.Graph is nil")
	}
	if req.Layers < 1 {
		return fmt.Errorf("core: layers must be ≥ 1, got %d", req.Layers)
	}
	if err := o.checkDevices(); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if len(g.Nodes) < 2 {
		return fmt.Errorf("core: graph needs at least two nodes")
	}
	return g.CheckSegmentAssumptions()
}

// PlanRequest describes one strategy search: the layer graph, the stacked
// layer count and an optional candidate mask.
type PlanRequest struct {
	// Graph is the representative layer graph (model.BuildBlock).
	Graph *graph.Graph
	// Layers is the stacked layer count (≥ 1).
	Layers int
	// Keep, when set, masks the search space: node i keeps the candidates
	// s of its space for which Keep(i, s) is true, and the answer is the
	// DP optimum over those (DESIGN.md §5.41). On a stackable graph the
	// head and tail run one candidate, so it is kept only when Keep accepts
	// it at both. A node left with no candidate is an error. A masked
	// search shares the layer tier's α-free entry with unmasked ones but
	// neither reads nor writes the plan tier.
	Keep func(node int, s partition.Seq) bool
}

// Plan searches req.Graph, masked by req.Keep, and stacks req.Layers
// identical layers, returning the optimal strategy for a representative
// layer and the stacked total cost.
// Cancellation is checked at coarse, value-independent points — between pool
// task pulls, per Bellman step, per merge, between stages — so an
// uncancelled search is bit-identical to an uncancellable one, while a
// cancelled search returns ctx.Err() promptly and publishes nothing partial
// to the shared cross-call cache.
func (o *Optimizer) Plan(ctx context.Context, req PlanRequest) (*Strategy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.checkRequest(req); err != nil {
		return nil, err
	}
	return o.search(ctx, req)
}
