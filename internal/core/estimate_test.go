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
// real Plan call the SAME request must estimate a Warm plan hit — and the
// promise must be sound (the search re-run does zero node evaluations, zero
// edge builds and no DP). A plan hit and a layer-table hit stay Warm after
// the edge tier is flushed, since neither asks for an edge matrix.
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
	if !warm.Warm || !warm.PlanHit {
		t.Fatalf("repeat request not estimated a Warm plan hit: %+v", warm)
	}
	if warm.NodeEvals != 0 || warm.EdgeBuilds != 0 {
		t.Fatalf("warm estimate still predicts cache misses: %+v", warm)
	}
	if warm.Work <= 0 {
		t.Fatal("warm Work must stay positive (the node lookups still run)")
	}
	if warm.Work != float64(len(g.Nodes)) {
		t.Fatalf("plan-hit Work = %v, want the %d-node lookup floor", warm.Work, len(g.Nodes))
	}

	// Soundness: the promised plan hit really does no quadratic or DP work.
	checkHit := func(label string) {
		t.Helper()
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		s := strat.Stats
		if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.EntriesScanned != 0 || s.CrossCallPlanHits != 1 {
			t.Fatalf("%s: plan-hit estimate was unsound: search did work %+v", label, s)
		}
	}
	checkHit("warm")

	// An edge-tier flush leaves the plan hit, and with it Warm, intact.
	cache.mu.Lock()
	cache.edges, cache.edgeCells = make(map[string]*edgeMat), 0
	cache.mu.Unlock()
	flushed, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !flushed.Warm || !flushed.PlanHit || flushed.Work != warm.Work {
		t.Fatalf("plan hit after an edge flush not estimated Warm at the floor: %+v", flushed)
	}
	checkHit("edge-flushed")

	// Without the plan tier the same request is a layer-table hit. It asks
	// for no edge matrix either, so the edge flush leaves it Warm, and the
	// search runs stacking only.
	cache.dropPlans()
	table, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !table.Warm || table.PlanHit || !table.TableHit || table.EdgeBuilds != 0 {
		t.Fatalf("edge-flushed table hit not estimated Warm: %+v", table)
	}
	if table.Work <= warm.Work || table.Work >= cold.Work {
		t.Fatalf("table-hit Work %v not between plan-hit %v and cold %v", table.Work, warm.Work, cold.Work)
	}
	strat, err := o.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := strat.Stats; s.CrossCallTableHits != 1 || s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 ||
		s.CrossCallEdgeHits != 0 || s.SegTablesBuilt != 0 {
		t.Fatalf("table-hit estimate was unsound: search did %+v", s)
	}

	// Without the table tier as well, the flushed edge matrices must be
	// rebuilt: not Warm, and dearer than the table hit.
	cache.dropPlansAndTables()
	rebuild, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if rebuild.Warm || rebuild.PlanHit || rebuild.TableHit || rebuild.EdgeBuilds == 0 {
		t.Fatalf("edge-flushed request without its plan and table estimated warm: %+v", rebuild)
	}
	if rebuild.Work <= table.Work || rebuild.Work >= cold.Work {
		t.Fatalf("rebuild Work %v not between table-hit %v and cold %v", rebuild.Work, table.Work, cold.Work)
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
// estimate a Warm plan hit, and with the plan tier dropped, a Warm
// layer-table hit — proving the estimator probes with
// byte-identical keys to the ones the sweep's searches inserted — and a
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
	// Every swept point is now a plan hit.
	for i, p := range points {
		o := optFor(p)
		req := PlanRequest{Graph: g, Layers: p.layers}
		est, err := o.EstimatePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Warm || !est.PlanHit {
			t.Errorf("point %d (%+v) not a Warm plan hit after sweep: %+v", i, p, est)
		}
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if s := strat.Stats; s.NodeEvals != 0 || s.CrossCallPlanHits != 1 || s.EntriesScanned != 0 {
			t.Errorf("point %d re-plan missed the plan tier: %+v", i, s)
		}
	}
	// Beneath the plan tier, every swept point is warm at every tier.
	shared.dropPlans()
	for i, p := range points {
		o := optFor(p)
		req := PlanRequest{Graph: g, Layers: p.layers}
		est, err := o.EstimatePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Warm || est.PlanHit {
			t.Errorf("point %d (%+v) not Warm after sweep: %+v", i, p, est)
		}
		if est.NodeEvals != 0 || est.EdgeBuilds != 0 {
			t.Errorf("point %d predicts quadratic work after sweep: %+v", i, est)
		}
		if !est.TableHit {
			t.Errorf("point %d missed the layer table: %+v", i, est)
		}
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		s := strat.Stats
		if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.SegTablesBuilt != 0 {
			t.Errorf("point %d re-plan did work after sweep: %+v", i, s)
		}
		if s.CrossCallTableHits != 1 {
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
