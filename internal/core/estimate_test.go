package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

func estimateOptimizer(t *testing.T, cache *SearchCache) *Optimizer {
	t.Helper()
	m := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	m.Alpha = 1e-12
	o := NewOptimizer(m)
	o.Cache = cache
	return o
}

// TestEstimatePlanColdThenWarm pins the estimator's contract: a cold cache
// predicts node and edge work — exactly the node evaluations and edge
// builds the search then performs, with and without beam pruning; after one
// real Plan call the SAME request must estimate Warm — and a Warm promise
// must be sound (the search re-run does zero node evaluations and zero edge
// builds).
func TestEstimatePlanColdThenWarm(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, beam := range []int{0, 8} {
		o := estimateOptimizer(t, NewSearchCache())
		o.Opts.Beam = beam
		req := PlanRequest{Graph: g, Layers: cfg.Layers}
		est, err := o.EstimatePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if est.EdgeBuilds != strat.Stats.EdgeMatsBuilt || est.NodeEvals != strat.Stats.NodeEvals {
			t.Errorf("beam %d: cold estimate %d edge builds / %d node evals, search did %d / %d",
				beam, est.EdgeBuilds, est.NodeEvals, strat.Stats.EdgeMatsBuilt, strat.Stats.NodeEvals)
		}
	}

	cache := NewSearchCache()
	o := estimateOptimizer(t, cache)
	req := PlanRequest{Graph: g, Layers: cfg.Layers}

	cold, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("empty cache estimated Warm")
	}
	if cold.NodeEvals == 0 || cold.CandidatesEvaluated == 0 {
		t.Fatalf("cold estimate predicts no node work: %+v", cold)
	}
	if cold.EdgeBuilds == 0 || cold.EdgeCells == 0 {
		t.Fatalf("cold estimate predicts no edge work: %+v", cold)
	}
	if cold.Work <= 0 {
		t.Fatalf("cold Work = %v", cold.Work)
	}

	if _, err := o.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	warm, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatalf("repeat request not estimated Warm: %+v", warm)
	}
	if warm.NodeEvals != 0 || warm.EdgeBuilds != 0 {
		t.Fatalf("warm estimate still predicts cache misses: %+v", warm)
	}
	if warm.Work <= 0 {
		t.Fatal("warm Work must stay positive (the DP still runs)")
	}
	if warm.Work >= cold.Work {
		t.Fatalf("warm Work %v not below cold Work %v", warm.Work, cold.Work)
	}

	// Soundness: the promised-warm search really does no quadratic work.
	strat, err := o.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if strat.Stats.NodeEvals != 0 || strat.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("Warm estimate was unsound: search did work %+v", strat.Stats)
	}
}

// TestEstimatePlanDisableCacheNeverWarm: configurations that bypass the
// cross-call cache can never be Warm, no matter how often they repeat.
func TestEstimatePlanDisableCacheNeverWarm(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := estimateOptimizer(t, NewSearchCache())
	o.Opts.DisableCache = true
	req := PlanRequest{Graph: g, Layers: 1}
	if _, err := o.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	est, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if est.Warm {
		t.Fatal("DisableCache estimated Warm")
	}
	if est.NodeEvals == 0 || est.EdgeBuilds == 0 {
		t.Fatalf("DisableCache estimate must predict full work: %+v", est)
	}
}

// TestEstimatePlanBudgetProbesFirstBeam: a budget-mode request is costed at
// budgetStartBeam. A cache warmed by the SAME budget request estimates Warm;
// a cache warmed only by an exact (unpruned) search does not, because pruned
// edge matrices live under beam-dependent keys. Opts.Beam is restored.
func TestEstimatePlanBudgetProbesFirstBeam(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := PlanRequest{Graph: g, Layers: cfg.Layers, Budget: time.Minute}

	exactWarmed := NewSearchCache()
	oe := estimateOptimizer(t, exactWarmed)
	if _, err := oe.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers}); err != nil {
		t.Fatal(err)
	}
	est, err := oe.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if est.ProbeBeam != budgetStartBeam {
		t.Fatalf("budget estimate probed beam %d, want %d", est.ProbeBeam, budgetStartBeam)
	}
	if est.Warm {
		t.Fatal("exact-warmed cache must not be Warm for a pruned probe")
	}
	if est.NodeEvals != 0 {
		t.Fatalf("node entries are beam-independent, want 0 evals: %+v", est)
	}
	if oe.Opts.Beam != 0 {
		t.Fatalf("EstimatePlan left Opts.Beam = %d", oe.Opts.Beam)
	}

	budgetWarmed := NewSearchCache()
	ob := estimateOptimizer(t, budgetWarmed)
	if _, err := ob.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	est2, err := ob.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !est2.Warm {
		t.Fatalf("budget-warmed cache not Warm for the same budget request: %+v", est2)
	}
}

// TestEstimateWarmAfterSweep pins the sweep→estimate contract the portfolio
// endpoint relies on: after planning a scale curve (device counts, α values,
// layer counts) against ONE shared cache, EVERY point must subsequently
// estimate Warm with all segment tables hit — proving the estimator probes
// with byte-identical keys to the ones the sweep's searches inserted — and a
// re-plan of any point must do zero node, edge or table work.
func TestEstimateWarmAfterSweep(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		devices int
		alpha   float64
		layers  int
	}{
		{8, 1e-12, 2},
		{8, 1e-10, 2}, // α shift off the first point
		{4, 1e-12, 2}, // device-count change
		{8, 1e-12, 4}, // layer-count change
	}
	shared := NewSearchCache()
	optFor := func(p struct {
		devices int
		alpha   float64
		layers  int
	}) *Optimizer {
		m := cost.NewModel(device.MustCluster(p.devices, 4, device.V100Profile()))
		m.Alpha = p.alpha
		o := NewOptimizer(m)
		o.Cache = shared
		return o
	}
	// The sweep: plan every point against the shared cache.
	for _, p := range points {
		if _, err := optFor(p).Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers}); err != nil {
			t.Fatal(err)
		}
	}
	// The property: every swept point is now warm at every tier.
	for i, p := range points {
		o := optFor(p)
		req := PlanRequest{Graph: g, Layers: p.layers}
		est, err := o.EstimatePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Warm {
			t.Errorf("point %d (%+v) not Warm after sweep: %+v", i, p, est)
		}
		if est.NodeEvals != 0 || est.EdgeBuilds != 0 {
			t.Errorf("point %d predicts quadratic work after sweep: %+v", i, est)
		}
		if est.SegTables == 0 || est.SegTableHits != est.SegTables {
			t.Errorf("point %d tables not all hit: %d/%d", i, est.SegTableHits, est.SegTables)
		}
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		s := strat.Stats
		if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.SegTablesBuilt != 0 {
			t.Errorf("point %d re-plan did work after sweep: %+v", i, s)
		}
		if s.CrossCallTableHits == 0 {
			t.Errorf("point %d re-plan missed the table tier: %+v", i, s)
		}
	}
}

// TestEstimatePlanRejectsBadRequests mirrors Plan's input validation.
func TestEstimatePlanRejectsBadRequests(t *testing.T) {
	o := estimateOptimizer(t, NewSearchCache())
	if _, err := o.EstimatePlan(PlanRequest{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.EstimatePlan(PlanRequest{Graph: g, Layers: 0}); err == nil {
		t.Fatal("zero layers accepted")
	}
}
