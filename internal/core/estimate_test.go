package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
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
// builds the search then performs; after one real Plan call the SAME
// request must estimate a Warm plan hit — and the promise must be sound
// (the search re-run does zero node evaluations, zero edge builds and no
// DP). Beneath the plan tier the request is still Warm: a layer hit builds
// its layer table from the cached node entries and edge matrices. A plan hit
// stays Warm after the layer tier is flushed, since it asks for no layer
// input.
func TestEstimatePlanColdThenWarm(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	{
		o := estimateOptimizer(t, NewSearchCache())
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
			t.Errorf("cold estimate %d edge builds / %d node evals, search did %d / %d",
				est.EdgeBuilds, est.NodeEvals, strat.Stats.EdgeMatsBuilt, strat.Stats.NodeEvals)
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

	// Beneath the plan tier the request builds its layer table from the
	// layer tier's node entries and edge matrices: Warm, no node evaluation
	// or edge build, and a DP term that costs more than the plan hit's
	// lookup floor.
	cache.plans.reset()
	miss, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !miss.Warm || miss.PlanHit || miss.NodeEvals != 0 || miss.EdgeBuilds != 0 {
		t.Fatalf("plan miss over cached nodes and edges not estimated Warm: %+v", miss)
	}
	if miss.Work <= warm.Work || miss.Work >= cold.Work {
		t.Fatalf("plan-miss Work %v not between plan-hit %v and cold %v", miss.Work, warm.Work, cold.Work)
	}
	strat, err := o.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := strat.Stats; s.CrossCallPlanHits != 0 || s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 ||
		s.SegTablesBuilt == 0 {
		t.Fatalf("warm plan-miss estimate was unsound: search did %+v", s)
	}

	// A layer-tier flush leaves the republished plan hit, and with it Warm,
	// intact.
	cache.layers.reset()
	flushed, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !flushed.Warm || !flushed.PlanHit || flushed.Work != warm.Work {
		t.Fatalf("plan hit after a layer flush not estimated Warm at the floor: %+v", flushed)
	}
	checkHit("layer-flushed")

	// Without the plan tier as well, the request is cold again: the same
	// count as the empty cache's.
	cache.plans.reset()
	rebuild, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if rebuild != cold {
		t.Fatalf("layer-flushed request without its plan estimated %+v, want the cold %+v", rebuild, cold)
	}
}

// TestEstimatePlanDisableCacheNeverWarm: configurations that bypass the
// cross-call cache — a calibration Book — can never be Warm, no matter how
// often they repeat.
func TestEstimatePlanDisableCacheNeverWarm(t *testing.T) {
	cfg := model.OPT6B7()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := withBook(t, estimateOptimizer(t, NewSearchCache()))
	req := PlanRequest{Graph: g, Layers: 1}
	if _, err := o.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	est, err := o.EstimatePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	if est.Warm {
		t.Fatal("calibrated optimizer estimated Warm")
	}
	if est.NodeEvals == 0 || est.EdgeBuilds == 0 || est.PlanHit {
		t.Fatalf("calibrated estimate must predict full work: %+v", est)
	}
	if n := o.Cache.PlanEntries(); n != 0 {
		t.Fatalf("calibrated optimizer published %d plans", n)
	}
}

// TestEstimateWarmAfterSweep pins the sweep→estimate contract the daemon's
// admission gate relies on: after planning a scale curve (device counts, α values,
// layer counts) against ONE shared cache, EVERY point must subsequently
// estimate a Warm plan hit, and with the plan tier dropped, a Warm plan
// miss — proving the estimator probes with byte-identical keys to the ones
// the sweep's searches inserted — whose re-plan evaluates no node, builds no
// edge matrix and runs the layer table's DP only. The plan tier is dropped
// before each point: a re-plan republishes the one entry every layer count
// of its graph shares.
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
	for i, p := range points {
		shared.plans.reset()
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
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		s := strat.Stats
		if s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 || s.CrossCallPlanHits != 0 || s.SegTablesBuilt == 0 {
			t.Errorf("point %d re-plan did more or less than the DP after sweep: %+v", i, s)
		}
	}
}

// TestEstimatePlanRejectsBadRequests pins the one request check: every
// request Plan rejects before searching, EstimatePlan rejects with the same
// error. A graph whose extended edges 0→2 and 1→3 break the segmentation
// assumptions is one: the estimate must not price a graph the search
// refuses. So is a graph cut at {0, 2, 4, 6} whose extended edge 2→6 joins
// two cuts but is priced by no segment step or merge. A graph with no node
// is refused for its size, before its segment cuts are read.
func TestEstimatePlanRejectsBadRequests(t *testing.T) {
	o := estimateOptimizer(t, NewSearchCache())
	crossed := periodicChain(t, 2, 4, 4, []int{4, 4, 4}, 0)
	crossed.Connect(0, 2, 0, []int{0, 1, 2})
	crossed.Connect(1, 3, 0, []int{model.LinB, model.LinM, model.LinK})
	if crossed.CheckSegmentAssumptions() == nil {
		t.Fatal("the crossed graph meets the segmentation assumptions")
	}
	lin := []int{model.LinB, model.LinM, model.LinK}
	unpriced := periodicChain(t, 2, 4, 4, []int{4, 4, 4, 4, 4}, 0)
	unpriced.Connect(2, 4, 0, lin)
	unpriced.Connect(4, 6, 0, lin)
	unpriced.Connect(2, 6, 0, lin)
	if cuts := unpriced.SegmentCuts(); !slices.Equal(cuts, []int{0, 2, 4, 6}) {
		t.Fatalf("cuts %v, want [0 2 4 6]", cuts)
	}
	single := periodicChain(t, 2, 4, 4, []int{4}, 0)
	single.Nodes, single.Edges = single.Nodes[:1], nil
	for _, tc := range []struct {
		name string
		req  PlanRequest
	}{
		{"nil graph", PlanRequest{Layers: 1}},
		{"zero layers", PlanRequest{Graph: crossed}},
		{"crossed extended edges", PlanRequest{Graph: crossed, Layers: 1}},
		{"unpriced edge between cuts", PlanRequest{Graph: unpriced, Layers: 1}},
		{"one node", PlanRequest{Graph: single, Layers: 1}},
		{"no node", PlanRequest{Graph: &graph.Graph{}, Layers: 1}},
	} {
		_, planErr := o.Plan(context.Background(), tc.req)
		_, estErr := o.EstimatePlan(tc.req)
		if planErr == nil || estErr == nil || planErr.Error() != estErr.Error() {
			t.Errorf("%s: Plan error %v, EstimatePlan error %v; want one error from both", tc.name, planErr, estErr)
		}
	}
}

// referenceEstimate is EstimatePlan with every slot's space size enumerated
// by SpaceSize, whether or not the layer tier holds it: the estimator takes
// a layer hit's sizes from its stored candidate lists instead. Everything
// else — slot dedup, probes, the plan tier, edge and DP terms — is the
// production estimator's arithmetic, so any field that differs from
// EstimatePlan's betrays a cached list whose length is not SpaceSize.
func referenceEstimate(o *Optimizer, req PlanRequest) SearchEstimate {
	g := req.Graph
	ccache := o.crossCache()
	envSig := o.appendEnvSig(nil)
	if e := ccache.plans.get(string(o.appendPlanCrossKey(envSig, g))); req.Keep == nil && e != nil && e.fits(g, o.Cost.Cluster.Bits(), req.Layers) {
		return SearchEstimate{Warm: true, PlanHit: true, Work: float64(len(g.Nodes))}
	}
	warm := ccache.layers.get(string(appendLayerCrossKey(envSig, g))) != nil
	in := &sigInterner{}
	slotOf := make([]int, len(g.Nodes))
	var slotNode []int
	bySig := make(map[int32]int)
	for i, op := range g.Nodes {
		id := in.fullID(op)
		s, ok := bySig[id]
		if !ok {
			s = len(slotNode)
			bySig[id] = s
			slotNode = append(slotNode, i)
		}
		slotOf[i] = s
	}
	est := SearchEstimate{Warm: warm}
	slotSize := make([]int, len(slotNode))
	for s, ni := range slotNode {
		slotSize[s] = SpaceSize(g.Nodes[ni], o.Cost.Cluster.Bits(), o.Opts)
		if !warm {
			est.NodeEvals++
			est.CandidatesEvaluated += slotSize[s]
		}
	}
	eff := func(i int) int { return slotSize[slotOf[i]] }
	nodeWork := estCandidateUnit * float64(est.CandidatesEvaluated)
	seen := make(map[edgeMatKey]bool)
	for _, e := range g.Edges {
		k := edgeKeyOf(in, g, e)
		if seen[k] {
			continue
		}
		seen[k] = true
		if !warm {
			est.EdgeBuilds++
			est.EdgeCells += int64(eff(e.Src)) * int64(eff(e.Dst))
		}
	}
	cuts := g.SegmentCuts()
	dp := 0.0
	for s := 0; s+1 < len(cuts); s++ {
		for i := cuts[s]; i <= cuts[s+1]; i++ {
			dp += estScan * float64(eff(i))
		}
	}
	dp += float64(len(cuts)-1) * estScan * float64(eff(len(g.Nodes)-1))
	est.Work = nodeWork + float64(est.EdgeCells) + dp
	return est
}

// TestEstimateSpaceSizesFromNodeCache pins the invariant the estimator's
// layer hit relies on: after a Plan, every node entry of the cached layer
// holds exactly SpaceSize(op, bits, opts) sequences, for the six paper models
// at 4–32 devices under every option that shapes enumeration (the
// environment key folds AllowBatchSplit and MaxPrimeK), and under the
// spatial-only mask, whose requests share the unmasked layer. And in every
// cache state a request can meet — cold, a plan miss over a warm layer, a
// plan hit (which a masked request never takes) — the request estimates
// field for field what referenceEstimate computes with SpaceSize.
func TestEstimateSpaceSizesFromNodeCache(t *testing.T) {
	optionSets := []struct {
		name string
		edit func(*Options)
		keep func(int, partition.Seq) bool
	}{
		{"default", func(*Options) {}, nil},
		{"no-prime", func(*Options) {}, noPrime},
		{"no-batch-split", func(o *Options) { o.AllowBatchSplit = false }, nil},
		{"max-prime-k-1", func(o *Options) { o.MaxPrimeK = 1 }, nil},
	}
	for _, devices := range []int{4, 8, 16, 32} {
		for _, cfg := range model.All() {
			for _, set := range optionSets {
				name := fmt.Sprintf("%s@%d/%s", cfg.Name, devices, set.name)
				t.Run(name, func(t *testing.T) {
					if devices == 32 && testing.Short() {
						t.Skip("32-device cells skipped under -short")
					}
					checkEstimateSpaceSizes(t, cfg, devices, set.edit, set.keep)
				})
			}
		}
	}
}

func checkEstimateSpaceSizes(t *testing.T, cfg model.Config, devices int, edit func(*Options), keep func(int, partition.Seq) bool) {
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSearchCache()
	o := NewOptimizer(cost.NewModel(device.MustCluster(devices, 4, device.V100Profile())))
	o.Cache = cache
	edit(&o.Opts)
	exact := PlanRequest{Graph: g, Layers: cfg.Layers, Keep: keep}
	compare := func(state string) {
		t.Helper()
		got, err := o.EstimatePlan(exact)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(o, exact); got != want {
			t.Errorf("%s: estimate %+v, SpaceSize reference %+v", state, got, want)
		}
	}

	compare("cold")
	// The unmasked search publishes the plan a masked request must not take.
	for _, req := range []PlanRequest{{Graph: g, Layers: cfg.Layers}, exact} {
		if _, err := o.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	in := cache.layers.get(string(appendLayerCrossKey(o.appendEnvSig(nil), g)))
	if in == nil {
		t.Fatal("layer not cached after Plan")
	}
	unique := make(map[string]bool)
	for i, op := range g.Nodes {
		unique[opSig(op)] = true
		e := in.slots[in.slotOf[i]]
		if want := SpaceSize(op, o.Cost.Cluster.Bits(), o.Opts); len(e.seqs) != want {
			t.Errorf("node %d (%s): cached %d sequences, SpaceSize %d", i, op.Name, len(e.seqs), want)
		}
	}
	if len(in.slots) != len(unique) {
		t.Fatalf("layer holds %d node entries, the graph has %d unique nodes", len(in.slots), len(unique))
	}
	compare("plan hit")
	cache.plans.reset()
	compare("plan miss, layer warm")
	cache.layers.reset()
	compare("layer flushed")
}
