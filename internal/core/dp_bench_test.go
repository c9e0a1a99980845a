// End-to-end cold-search benchmark for the perf guard: it pins the whole
// segment DP pipeline — candidate enumeration, edge matrix fill, Bellman
// folds, the min-plus products and the final merge — on a fixed small
// model, so a regression in the DP kernel or anywhere around it (probe
// logic, cache plumbing) turns the guard red.
package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
)

// BenchmarkSegmentDPCold runs one fully cold Llama2-7B block search at 8
// devices per iteration. A fresh private SearchCache each round keeps every
// iteration cold (no cross-call node/edge/table hits), and the fixed config
// keeps the work deterministic, so ns/op is comparable across runs.
func BenchmarkSegmentDPCold(b *testing.B) {
	cfg := model.Llama2_7B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mdl := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOptimizer(mdl)
		o.Cache = NewSearchCache()
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		if err != nil {
			b.Fatal(err)
		}
		if strat.Stats.CrossCallNodeHits != 0 || strat.Stats.CrossCallPlanHits != 0 {
			b.Fatalf("iteration was not cold: %+v", strat.Stats)
		}
	}
}

// BenchmarkEdgeMatStage builds every edge matrix of an OPT-6.7B block on a
// 2-device stage sub-cluster, the shape of the dozens of short stage
// searches one Plan3D call runs: the layer's unique edges (edgeSlots) go
// through the grouped edge phase (buildEdgeMats) on one worker, the way
// prepare builds them with a single-worker pool.
// The matrices hold a few dozen cells, so the per-matrix set-up dominates:
// memo tables sized for big matrices show up here as ns/op and B/op long
// before they move a 32-device search.
func BenchmarkEdgeMatStage(b *testing.B) {
	g, err := model.BuildBlock(model.OPT6B7())
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(2, 2, device.V100Profile())))
	o.Opts.AllowBatchSplit = false
	ents := make([]*nodeEntry, len(g.Nodes))
	for i, op := range g.Nodes {
		ents[i] = o.evalNode(op, 1)
	}
	edges, _ := edgeSlots(g, &sigInterner{})
	cells := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = 0
		// One registry per search, as prepare makes.
		mats, _, err := o.buildEdgeMats(context.Background(), g, edges, ents, o.newOverlapTables(), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range mats {
			cells += m.nr * m.nc
		}
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkNodeEval32 evaluates the candidate space of OPT-175B's qkv
// linear on 32 devices on one worker, the largest node of a cold 32-device
// search: enumeration, intra costs and the space's output and input axis
// patterns (cost.Model.SpacePatterns). The patterns sweep the devices once
// per distinct axis projection, not per candidate, so enumeration and
// IntraCost are most of ns/op and B/op.
func BenchmarkNodeEval32(b *testing.B) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(32, 4, device.V100Profile())))
	op := g.Nodes[model.NodeQKV]
	cands := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = len(o.evalNode(op, 1).seqs)
	}
	b.ReportMetric(float64(cands), "cands/op")
}

// BenchmarkPlanWarmRepeat repeats one OPT-175B block search at 16 devices
// on a warm cache: every iteration is an identical repeat, answered by the
// plan tier with no node pass, so ns/op pins the cost of a warm /v1/plan
// search — graph validation, the plan key, the probe and copying the
// answer.
func BenchmarkPlanWarmRepeat(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(16, 4, device.V100Profile())))
	o.Cache = NewSearchCache()
	req := PlanRequest{Graph: g, Layers: cfg.Layers}
	if _, err := o.Plan(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat, err := o.Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if strat.Stats.CrossCallPlanHits != 1 {
			b.Fatalf("iteration was not a plan hit: %+v", strat.Stats)
		}
	}
}

// BenchmarkPlanLayerChange alternates one OPT-175B block search at 16
// devices between two layer counts on a warm cache. The answer is one
// periodic layer whatever the count, so every iteration is a plan hit on
// the entry the warm-up stored, and ns/op pins the cost of a production
// layer-count change: graph validation, the plan key, the probe and
// rebuilding the strategy at the new count.
func BenchmarkPlanLayerChange(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(16, 4, device.V100Profile())))
	o.Cache = NewSearchCache()
	layers := [2]int{cfg.Layers, cfg.Layers / 2}
	if _, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers[1]}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: layers[i%2]})
		if err != nil {
			b.Fatal(err)
		}
		if s := strat.Stats; s.CrossCallPlanHits != 1 {
			b.Fatalf("iteration was not a plan hit: %+v", s)
		}
	}
}

// BenchmarkEstimatePlanWarm estimates one OPT-175B block request at 32
// devices against a warm cache: every iteration is the admission estimate
// of an identical repeat, answered as a plan hit, so ns/op pins the cost the
// daemon pays before a warm search — graph validation, the plan key and the
// probe with its fits check.
func BenchmarkEstimatePlanWarm(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o := NewOptimizer(cost.NewModel(device.MustCluster(32, 4, device.V100Profile())))
	o.Cache = NewSearchCache()
	req := PlanRequest{Graph: g, Layers: cfg.Layers}
	if _, err := o.Plan(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := o.EstimatePlan(req)
		if err != nil {
			b.Fatal(err)
		}
		if !est.PlanHit {
			b.Fatalf("iteration was not a plan hit: %+v", est)
		}
	}
}

// BenchmarkPlanAlphaShift alternates one OPT-175B block search at 16
// devices between two α values on a warm cache, with the plan tier reset
// before every iteration. Each iteration is then a layer hit: the layer
// tier serves every node entry and edge matrix (both α-free) and builds
// none. Only the first shift to 1e-12 may fill cells: the matrices' filled
// rectangles keep every cell a search filled, so each later iteration finds
// its cells filled, and ns/op pins the cost of an α shift — the probes, the
// totals at the new α, the bound passes and restrictions, the layer DP and
// the layer pick.
func BenchmarkPlanAlphaShift(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cache := NewSearchCache()
	alphas := [2]float64{1e-12, 1e-10}
	opts := [2]*Optimizer{}
	for i, alpha := range alphas {
		m := cost.NewModel(device.MustCluster(16, 4, device.V100Profile()))
		m.Alpha = alpha
		opts[i] = NewOptimizer(m)
		opts[i].Cache = cache
	}
	req := PlanRequest{Graph: g, Layers: cfg.Layers}
	if _, err := opts[1].Plan(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.plans.reset()
		strat, err := opts[i%2].Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if s := strat.Stats; s.NodeEvals != 0 || s.EdgeMatsBuilt != 0 {
			b.Fatalf("iteration was not a layer hit: %+v", s)
		}
	}
}

// BenchmarkPlanCold16 runs one cold OPT-175B block search at 16 devices per
// iteration, on one worker and a fresh private SearchCache each round: the
// node pass, the edge preparation, the bound-first fill and the DP, end to
// end. It fails unless the search computes fewer leader fractions
// (EdgeFracCells) than filling every leader cell would, so a change that
// drifts back to the full fill cannot pass as a slowdown within tolerance.
func BenchmarkPlanCold16(b *testing.B) {
	cfg := model.OPT175B()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mdl := cost.NewModel(device.MustCluster(16, 4, device.V100Profile()))
	o := NewOptimizer(mdl)
	o.Opts.Parallelism = 1
	o.Cache = NewSearchCache()
	in, err := o.prepare(context.Background(), g, &SearchStats{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var full int64
	for _, gr := range in.groups {
		full += int64(gr.lead.m.nr) * int64(gr.lead.m.nc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cache = NewSearchCache()
		strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
		if err != nil {
			b.Fatal(err)
		}
		if s := strat.Stats; s.NodeEvals == 0 || s.EdgeFracCells >= full {
			b.Fatalf("not a bound-first cold search: %d node evals, %d of %d leader cells filled",
				s.NodeEvals, s.EdgeFracCells, full)
		}
	}
}
