package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// TestCrossCallCacheHitsAcrossScales replays the sweep path: the same model
// structures searched repeatedly across scales must (a) hit the cross-call
// cache on every repeat and (b) return bit-identical strategies to the cold
// run — the cache must be invisible in everything but the stats. The plan
// tier is dropped before each repeat so the layer tier serves it
// (TestPlanTierRepeatBitIdentical covers the plan tier).
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

// TestCrossCallCacheAlphaIndependence pins the α factoring: a layer entry's
// node entries are stored without totals, so a different α must still hit
// the cache AND give the same result as a cold search at that α.
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
