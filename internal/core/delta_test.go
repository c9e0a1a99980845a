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

func planWith(t *testing.T, g *graph.Graph, layers, devices int, alpha float64, cache *SearchCache) *Strategy {
	t.Helper()
	m := cost.NewModel(device.MustCluster(devices, 4, device.V100Profile()))
	m.Alpha = alpha
	o := NewOptimizer(m)
	o.Cache = cache
	strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers})
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

// TestDeltaRePlanColdThenWarm pins the table tier end to end on a real
// transformer block: a repeat request (with the plan tier above it dropped)
// must rebuild NO segment tables, serve every segment from the cross-call
// cache, do strictly less min-plus work, and return a bit-identical strategy.
func TestDeltaRePlanColdThenWarm(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	if cold.Stats.SegTablesBuilt == 0 {
		t.Fatalf("cold run built no segment tables: %+v", cold.Stats)
	}
	if cold.Stats.CrossCallTableHits != 0 {
		t.Fatalf("cold run reported table hits: %+v", cold.Stats)
	}
	shared.dropPlans()
	warm := planWith(t, g, cfg.Layers, 8, 1e-12, shared)
	sameStrategy(t, "table-warm", warm, cold)
	if warm.Stats.SegTablesBuilt != 0 {
		t.Errorf("warm run rebuilt %d segment tables", warm.Stats.SegTablesBuilt)
	}
	if warm.Stats.CrossCallTableHits != cold.Stats.SegTablesBuilt {
		t.Errorf("warm run hit %d tables, cold built %d",
			warm.Stats.CrossCallTableHits, cold.Stats.SegTablesBuilt)
	}
	if warm.Stats.DPTreeMerges != 0 {
		t.Errorf("warm run re-ran %d in-segment tree merges", warm.Stats.DPTreeMerges)
	}
	if warm.Stats.EntriesScanned >= cold.Stats.EntriesScanned {
		t.Errorf("warm run scanned %d min-plus entries, cold %d — tables saved nothing",
			warm.Stats.EntriesScanned, cold.Stats.EntriesScanned)
	}
	if n := shared.TableEntries(); n == 0 {
		t.Error("cache holds no table entries after a cold run")
	}
}

// TestDeltaRePlanAlphaFrontier: an α shift keeps every node and edge entry
// (α-factored tiers) but must rebuild every segment table (α-keyed tier) —
// and the rebuilt result must equal a cold search at the new α.
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
		t.Errorf("α shift reused α-keyed tables: %+v", delta.Stats)
	}
	if delta.Stats.SegTablesBuilt == 0 {
		t.Errorf("α shift built no tables: %+v", delta.Stats)
	}
	cold := planWith(t, g, 2, 8, 1e-10, NewSearchCache())
	sameStrategy(t, "alpha-frontier", delta, cold)
}

// TestDeltaRePlanLayersFrontier: a layer-count change reuses EVERY tier —
// only the stacking merges re-run.
func TestDeltaRePlanLayersFrontier(t *testing.T) {
	shared := NewSearchCache()
	g := deltaChain(t, 5, 2, -1)
	planWith(t, g, 2, 8, 1e-12, shared)
	delta := planWith(t, g, 4, 8, 1e-12, shared)
	if delta.Stats.SegTablesBuilt != 0 || delta.Stats.CrossCallTableHits == 0 {
		t.Errorf("layer change rebuilt segment tables: %+v", delta.Stats)
	}
	if delta.Stats.NodeEvals != 0 || delta.Stats.EdgeMatsBuilt != 0 {
		t.Errorf("layer change re-ran quadratic stages: %+v", delta.Stats)
	}
	cold := planWith(t, g, 4, 8, 1e-12, NewSearchCache())
	sameStrategy(t, "layers-frontier", delta, cold)
}

// TestDeltaRePlanGraphEditFrontier: editing ONE op (doubling a FlopFactor in
// the second segment) must invalidate only the touched segment; the first
// segment's table and every untouched node evaluation are served from cache,
// and the result equals a cold search of the edited graph.
func TestDeltaRePlanGraphEditFrontier(t *testing.T) {
	shared := NewSearchCache()
	base := deltaChain(t, 5, 2, -1)
	planWith(t, base, 2, 8, 1e-12, shared)

	edited := deltaChain(t, 5, 2, 4) // node 4 lives in segment [2, 6]
	delta := planWith(t, edited, 2, 8, 1e-12, shared)
	if delta.Stats.NodeEvals != 1 {
		t.Errorf("graph edit re-evaluated %d nodes, want exactly the edited one", delta.Stats.NodeEvals)
	}
	if delta.Stats.CrossCallTableHits == 0 {
		t.Errorf("graph edit invalidated the untouched segment: %+v", delta.Stats)
	}
	if delta.Stats.SegTablesBuilt == 0 {
		t.Errorf("graph edit rebuilt no segment: %+v", delta.Stats)
	}
	cold := planWith(t, edited, 2, 8, 1e-12, NewSearchCache())
	sameStrategy(t, "graph-edit-frontier", delta, cold)
}

// TestTableCacheCapFlush exercises the table tier's epoch flush: with a
// one-cell cap every insert flushes its predecessors, so a warm re-plan
// (with the plan tier dropped) rebuilds at least one segment — and still
// returns the identical strategy.
func TestTableCacheCapFlush(t *testing.T) {
	cache := NewSearchCache()
	cache.tableCellCap = 1
	g := deltaChain(t, 5, 2, -1)
	cold := planWith(t, g, 2, 8, 1e-12, cache)
	if n := cache.TableEntries(); n > 1 {
		t.Errorf("cap 1 retained %d tables", n)
	}
	cache.dropPlans()
	warm := planWith(t, g, 2, 8, 1e-12, cache)
	if warm.Stats.SegTablesBuilt == 0 {
		t.Errorf("flushed cache served every table: %+v", warm.Stats)
	}
	sameStrategy(t, "cap-flush", warm, cold)
}
