package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// TestCrossCallCacheHitsAcrossScales replays the sweep path: the same model
// structures searched repeatedly across scales must (a) hit the cross-call
// cache on every repeat and (b) return bit-identical strategies to the cold
// run — the cache must be invisible in everything but the stats. The plan
// and table tiers are dropped before each repeat so the node and edge tiers
// serve it (TestPlanTierRepeatBitIdentical covers the plan tier,
// TestDeltaRePlanColdThenWarm the table tier).
func TestCrossCallCacheHitsAcrossScales(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scales := []int{4, 8}
	cold := make(map[int]*Strategy)
	for pass := 0; pass < 2; pass++ {
		for _, scale := range scales {
			m := cost.NewModel(device.MustCluster(scale, 4, device.V100Profile()))
			m.Alpha = 1e-12
			o := NewOptimizer(m)
			o.Cache = shared
			shared.plans.reset()
			shared.tables.reset()
			strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
			if err != nil {
				t.Fatalf("pass %d scale %d: %v", pass, scale, err)
			}
			if pass == 0 {
				cold[scale] = strat
				if strat.Stats.CrossCallNodeHits != 0 || strat.Stats.CrossCallEdgeHits != 0 {
					t.Errorf("scale %d: cold pass reported cross-call hits: %+v", scale, strat.Stats)
				}
				continue
			}
			sameStrategy(t, cfg.Name, strat, cold[scale])
			if strat.Stats.CrossCallNodeHits == 0 {
				t.Errorf("scale %d: repeat pass had no cross-call node hits", scale)
			}
			if strat.Stats.CrossCallEdgeHits == 0 {
				t.Errorf("scale %d: repeat pass had no cross-call edge hits", scale)
			}
			if strat.Stats.NodeEvals != 0 || strat.Stats.EdgeMatsBuilt != 0 {
				t.Errorf("scale %d: repeat pass re-did work: %+v", scale, strat.Stats)
			}
		}
	}
}

// TestCrossCallCacheAlphaIndependence pins the α factoring: node entries are
// stored without totals, so a different α must still hit the cache AND give
// the same result as a cold search at that α.
func TestCrossCallCacheAlphaIndependence(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	search := func(alpha float64, cache *SearchCache) *Strategy {
		m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
		m.Alpha = alpha
		o := NewOptimizer(m)
		o.Cache = cache
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		if err != nil {
			t.Fatal(err)
		}
		return strat
	}
	search(1e-12, shared) // warm the cache at one α
	for _, alpha := range []float64{0, 1e-10, 1e-9} {
		warm := search(alpha, shared)
		if warm.Stats.CrossCallNodeHits == 0 {
			t.Errorf("α=%g: no cross-call node hits after warming at a different α", alpha)
		}
		if warm.Stats.CrossCallEdgeHits == 0 {
			t.Errorf("α=%g: no cross-call edge hits (matrices are α-independent)", alpha)
		}
		cold := search(alpha, NewSearchCache())
		sameStrategy(t, "alpha", warm, cold)
	}
}

// TestCrossCallCacheBeamKeys pins the pruned-edge keying: beam-pruned edge
// matrices depend on (beam, α), so a warm cache built exact must not leak
// wrong matrices into a pruned search, and the pruned warm result must equal
// a pruned cold result.
func TestCrossCallCacheBeamKeys(t *testing.T) {
	shared := NewSearchCache()
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	search := func(beam int, cache *SearchCache) *Strategy {
		m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
		m.Alpha = 1e-12
		o := NewOptimizer(m)
		o.Cache = cache
		o.Opts.Beam = beam
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		if err != nil {
			t.Fatal(err)
		}
		return strat
	}
	search(0, shared) // exact search warms node + unpruned edge entries
	warm := search(8, shared)
	cold := search(8, NewSearchCache())
	sameStrategy(t, "beam", warm, cold)
	if warm.Stats.CrossCallNodeHits == 0 {
		t.Errorf("pruned search should reuse (unpruned) node evaluations: %+v", warm.Stats)
	}
}

// TestOptimizeBudgetExactOnGenerousBudget pins the autotuner's exactness
// exit: with a budget it cannot exhaust on a small model, the beam grows
// until pruning removes nothing, and the result equals the exact search.
func TestOptimizeBudgetExactOnGenerousBudget(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(4, 4, device.V100Profile()))
	m.Alpha = 1e-12
	exact, err := NewOptimizer(m).Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer(m)
	got, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers, Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "budget", got, exact)
	if o.Opts.Beam != 0 {
		t.Errorf("budgeted Plan left Opts.Beam = %d, want restored 0", o.Opts.Beam)
	}
}

// TestOptimizeBudgetTinyBudget: a budget too small for a second width still
// returns a valid (approximate) strategy from the first beam.
func TestOptimizeBudgetTinyBudget(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	o := NewOptimizer(m)
	got, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seqs) != len(g.Nodes) {
		t.Fatalf("budget search returned %d assignments for %d nodes", len(got.Seqs), len(g.Nodes))
	}
	if o.Opts.Beam != 0 {
		t.Errorf("budgeted Plan left Opts.Beam = %d, want restored 0", o.Opts.Beam)
	}
}
