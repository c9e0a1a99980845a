package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// deltaChain builds an anchored linear chain with an extended residual edge
// from MID-chain node extSrc to extSrc+2, giving the graph two DP segments
// ([0, extSrc] and [extSrc, last]) so frontier invalidation is observable.
// editFlop, when ≥ 0, doubles that node's FlopFactor — the "one graph edit"
// of the delta re-planning contract.
func deltaChain(t *testing.T, length, extSrc, editFlop int) *graph.Graph {
	t.Helper()
	const b, m, k = 2, 8, 8
	g := &graph.Graph{Name: "delta-chain"}
	anchor := newFuzzAnchor(b, m, k)
	g.AddNode(anchor)
	for i := 0; i < length; i++ {
		lin := model.NewLinear("lin", b, m, k, k)
		if g.AddNode(lin) == editFlop {
			lin.FlopFactor *= 2
		}
	}
	g.Connect(0, 1, 0, []int{0, 1, 2})
	for i := 1; i < length; i++ {
		g.Connect(i, i+1, 0, []int{model.LinB, model.LinM, model.LinK})
	}
	if extSrc > 0 {
		g.Connect(extSrc, extSrc+2, 0, []int{model.LinB, model.LinM, model.LinK})
	}
	tail := *anchor
	tail.Name = "tail"
	g.AddNode(&tail)
	g.Connect(length, length+1, 0, []int{model.LinB, model.LinM, model.LinK})
	if err := g.Validate(); err != nil {
		t.Fatalf("deltaChain invalid: %v", err)
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		t.Fatalf("deltaChain segmentation: %v", err)
	}
	return g
}

// planWith plans g at the given scale and α. A nil cache selects the
// uncached reference (referencePlan); otherwise the cross-call cache is
// attached.
func planWith(t *testing.T, g *graph.Graph, layers, devices int, alpha float64, cache *SearchCache) *Strategy {
	t.Helper()
	m := cost.NewModel(device.MustCluster(devices, 4, device.V100Profile()))
	m.Alpha = alpha
	o := NewOptimizer(m)
	o.Cache = cache
	var strat *Strategy
	var err error
	if cache == nil {
		strat, err = referencePlan(o, g, layers)
	} else {
		strat, err = o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers})
	}
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

// TestDeltaRePlanColdThenWarm pins re-planning beneath the plan tier on a
// real transformer block: with the plan tier dropped, a repeat is a layer
// hit that rebuilds every segment from the cached node entries and edge
// matrices — no node evaluation or edge build — and returns a
// bit-identical strategy.
func TestDeltaRePlanColdThenWarm(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	if cold.Stats.SegTablesBuilt == 0 {
		t.Fatalf("cold run did not build its segments: %+v", cold.Stats)
	}

	shared.plans.reset()
	rebuilt := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	sameStrategy(t, "table-rebuilt", rebuilt, cold)
	if s := rebuilt.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits == 0 ||
		s.SegTablesBuilt != cold.Stats.SegTablesBuilt {
		t.Errorf("rebuild did not run every segment from the cached layer: %+v", s)
	}
}

// TestDeltaRePlanAlphaFrontier: an α shift hits the α-free layer tier, so
// every node entry and edge matrix is reused, but misses the α-keyed plan
// tier, so only the layer table's DP re-runs — and the result must equal a
// cold search at the new α.
func TestDeltaRePlanAlphaFrontier(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planWith(t, g, 2, 8, 1e-12, shared)
	delta := planWith(t, g, 2, 8, 1e-10, shared)
	if s := delta.Stats; s.NodeEvals != 0 || s.CrossCallNodeHits == 0 {
		t.Errorf("α shift re-evaluated nodes: %+v", s)
	}
	if s := delta.Stats; s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits == 0 {
		t.Errorf("α shift rebuilt edge matrices: %+v", s)
	}
	if s := delta.Stats; s.CrossCallPlanHits != 0 || s.SegTablesBuilt == 0 {
		t.Errorf("α shift did not re-run the DP: %+v", s)
	}
	cold := planWith(t, g, 2, 8, 1e-10, NewSearchCache())
	sameStrategy(t, "alpha-frontier", delta, cold)
}

// TestDeltaRePlanLayersFrontier: a layer-count change is a plan-tier hit.
// The answer is one periodic layer whatever the count, so the entry the
// first search stored serves the second: no layer table, edge matrix or
// node evaluation is even looked up, the layer is bit-identical, and only
// TotalCost scales.
func TestDeltaRePlanLayersFrontier(t *testing.T) {
	shared := NewSearchCache()
	g := deltaChain(t, 5, 2, -1)
	first := planWith(t, g, 2, 8, 1e-12, shared)
	delta := planWith(t, g, 4, 8, 1e-12, shared)
	if s := delta.Stats; s.CrossCallPlanHits != 1 || s.SegTablesBuilt != 0 {
		t.Errorf("layer change missed the plan tier: %+v", s)
	}
	if s := delta.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits != 0 || s.EntriesScanned != 0 {
		t.Errorf("layer change ran more than the node pass: %+v", s)
	}
	if delta.LayerCost != first.LayerCost || delta.TotalCost != 4*first.LayerCost {
		t.Errorf("layer change: layer %v total %v, want layer %v total %v",
			delta.LayerCost, delta.TotalCost, first.LayerCost, 4*first.LayerCost)
	}
	sameStrategy(t, "layers-frontier", delta, planWith(t, g, 4, 8, 1e-12, nil))
}

// TestDeltaRePlanGraphEditFrontier: editing ONE op (doubling a FlopFactor)
// changes the graph signature both the plan and the layer key fold, so the
// edited graph is a full miss — every node evaluated and every edge built,
// as cold — and the result equals a cold search of the edited graph.
func TestDeltaRePlanGraphEditFrontier(t *testing.T) {
	shared := NewSearchCache()
	base := deltaChain(t, 5, 2, -1)
	planWith(t, base, 2, 8, 1e-12, shared)

	edited := deltaChain(t, 5, 2, 4) // node 4 lives in segment [2, 6]
	delta := planWith(t, edited, 2, 8, 1e-12, shared)
	cold := planWith(t, edited, 2, 8, 1e-12, NewSearchCache())
	if s, c := delta.Stats, cold.Stats; s.CrossCallNodeHits != 0 || s.CrossCallEdgeHits != 0 || s.CrossCallPlanHits != 0 ||
		s.NodeEvals != c.NodeEvals || s.EdgeMatsBuilt != c.EdgeMatsBuilt || s.SegTablesBuilt != c.SegTablesBuilt {
		t.Errorf("graph edit was not a full miss: %+v; cold search %+v", s, c)
	}
	sameStrategy(t, "graph-edit-frontier", delta, planWith(t, edited, 2, 8, 1e-12, nil))
}
