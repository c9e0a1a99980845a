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

// TestDeltaRePlanColdThenWarm pins the table tier end to end on a real
// transformer block. A cold search publishes one layer table. With the plan
// and table tiers dropped, a repeat rebuilds every segment from the cached
// node and edge tiers and republishes the table; with only the plan tier
// dropped, a repeat is served from that table: no edge matrix, segment DP or
// merge, strictly less min-plus work, and a bit-identical strategy.
func TestDeltaRePlanColdThenWarm(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	if cold.Stats.SegTablesBuilt == 0 || cold.Stats.CrossCallTableHits != 0 {
		t.Fatalf("cold run did not build its segments: %+v", cold.Stats)
	}
	if n := shared.TableEntries(); n != 1 {
		t.Fatalf("cold run published %d layer tables, want 1", n)
	}

	shared.plans.reset()
	shared.tables.reset()
	rebuilt := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	sameStrategy(t, "table-rebuilt", rebuilt, cold)
	if s := rebuilt.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallTableHits != 0 ||
		s.SegTablesBuilt != cold.Stats.SegTablesBuilt {
		t.Errorf("rebuild did not run every segment from cached nodes and edges: %+v", s)
	}
	if n := shared.TableEntries(); n != 1 {
		t.Errorf("rebuild published %d layer tables, want 1", n)
	}

	shared.plans.reset()
	warm := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	sameStrategy(t, "table-warm", warm, cold)
	if s := warm.Stats; s.CrossCallTableHits != 1 || s.SegTablesBuilt != 0 || s.DPTreeMerges != 0 ||
		s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits != 0 {
		t.Errorf("warm run was not served from the layer table: %+v", s)
	}
	if warm.Stats.EntriesScanned >= cold.Stats.EntriesScanned {
		t.Errorf("warm run scanned %d min-plus entries, cold %d — the table saved nothing",
			warm.Stats.EntriesScanned, cold.Stats.EntriesScanned)
	}
}

// TestDeltaRePlanAlphaFrontier: an α shift keeps every node and edge entry
// (α-factored tiers) but must rebuild the layer table (α-keyed tier) — and
// the rebuilt result must equal a cold search at the new α.
func TestDeltaRePlanAlphaFrontier(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planWith(t, g, 2, 8, 1e-12, shared)
	delta := planWith(t, g, 2, 8, 1e-10, shared)
	if delta.Stats.NodeEvals != 0 || delta.Stats.CrossCallNodeHits == 0 {
		t.Errorf("α shift re-evaluated nodes: %+v", delta.Stats)
	}
	if delta.Stats.CrossCallTableHits != 0 {
		t.Errorf("α shift reused the α-keyed layer table: %+v", delta.Stats)
	}
	if delta.Stats.SegTablesBuilt == 0 {
		t.Errorf("α shift built no segments: %+v", delta.Stats)
	}
	cold := planWith(t, g, 2, 8, 1e-10, NewSearchCache())
	sameStrategy(t, "alpha-frontier", delta, cold)
}

// TestDeltaRePlanLayersFrontier: a layer-count change is served from the
// layer table — only the stacking merges re-run, and no edge matrix is even
// looked up.
func TestDeltaRePlanLayersFrontier(t *testing.T) {
	shared := NewSearchCache()
	g := deltaChain(t, 5, 2, -1)
	planWith(t, g, 2, 8, 1e-12, shared)
	delta := planWith(t, g, 4, 8, 1e-12, shared)
	if s := delta.Stats; s.CrossCallTableHits != 1 || s.SegTablesBuilt != 0 {
		t.Errorf("layer change missed the layer table: %+v", s)
	}
	if s := delta.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallEdgeHits != 0 {
		t.Errorf("layer change ran more than stacking: %+v", s)
	}
	sameStrategy(t, "layers-frontier", delta, planWith(t, g, 4, 8, 1e-12, nil))
}

// TestDeltaRePlanGraphEditFrontier: editing ONE op (doubling a FlopFactor)
// re-evaluates only that op, but the layer table folds the whole graph, so
// it misses and every segment's DP re-runs from cached edge matrices — and
// the result equals a cold search of the edited graph.
func TestDeltaRePlanGraphEditFrontier(t *testing.T) {
	shared := NewSearchCache()
	base := deltaChain(t, 5, 2, -1)
	first := planWith(t, base, 2, 8, 1e-12, shared)

	edited := deltaChain(t, 5, 2, 4) // node 4 lives in segment [2, 6]
	delta := planWith(t, edited, 2, 8, 1e-12, shared)
	if delta.Stats.NodeEvals != 1 {
		t.Errorf("graph edit re-evaluated %d nodes, want exactly the edited one", delta.Stats.NodeEvals)
	}
	if s := delta.Stats; s.CrossCallTableHits != 0 || s.SegTablesBuilt != first.Stats.SegTablesBuilt {
		t.Errorf("graph edit built %d of %d segments, %d table hits",
			s.SegTablesBuilt, first.Stats.SegTablesBuilt, s.CrossCallTableHits)
	}
	sameStrategy(t, "graph-edit-frontier", delta, planWith(t, edited, 2, 8, 1e-12, nil))
}

// TestTableCacheCapFlush exercises the table tier's epoch flush: with a
// one-cell cap every insert flushes its predecessors, so an α-shifted second
// search evicts the first one's layer table, and a layer change at the first
// α (a plan miss) rebuilds it — and still returns the cold strategy.
func TestTableCacheCapFlush(t *testing.T) {
	cache := NewSearchCache()
	cache.tables.cap = 1
	g := deltaChain(t, 5, 2, -1)
	planWith(t, g, 2, 8, 1e-12, cache)
	planWith(t, g, 2, 8, 1e-10, cache)
	if n := cache.TableEntries(); n != 1 {
		t.Errorf("cap 1 retained %d tables, want 1", n)
	}
	again := planWith(t, g, 3, 8, 1e-12, cache)
	if s := again.Stats; s.CrossCallTableHits != 0 || s.SegTablesBuilt == 0 {
		t.Errorf("flushed layer table was served: %+v", s)
	}
	sameStrategy(t, "cap-flush", again, planWith(t, g, 3, 8, 1e-12, nil))
}
