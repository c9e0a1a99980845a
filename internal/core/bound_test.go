package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// boundAlphas are the α values the bound is checked at: the tie-heavy 0,
// the experiments' default and a memory-weighted one.
var boundAlphas = []float64{0, 1e-12, 1e-10}

// boundProfiles are the machine profiles the bound is checked on.
var boundProfiles = []device.Profile{device.V100Profile(), device.A100SuperPodProfile(), device.MixedA100V100Profile()}

// fillAll fills every cell of in's matrices, which prepare leaves unfilled,
// through the production fill (fillRestrict with every candidate kept), adds
// the filled cells to st and returns every edge's matrix, copied out of the
// stores.
func fillAll(t *testing.T, o *Optimizer, g *graph.Graph, in *layerInputs, st *SearchStats) map[*graph.Edge]*edgeMat {
	t.Helper()
	cands := in.cands(o.Cost.Alpha)
	keep := make([][]int32, len(cands))
	for v, c := range cands {
		keep[v] = identityIDs(len(c.seqs))
	}
	_, mats, err := in.fillRestrict(context.Background(), o.Cost, g, cands, in.edgeMats(g), keep, st)
	if err != nil {
		t.Fatal(err)
	}
	return mats
}

// unprunedPlan runs o's search of g with every edge cell filled, the layer
// DP over the full space and no bound pass, and returns its answer with the
// prepare, fill and DP stats.
func unprunedPlan(t *testing.T, o *Optimizer, g *graph.Graph, layers int) *Strategy {
	t.Helper()
	ctx := context.Background()
	st := SearchStats{Workers: o.Workers()}
	in, err := o.prepare(ctx, g, &st)
	if err != nil {
		t.Fatal(err)
	}
	mats := fillAll(t, o, g, in, &st)
	cands := in.cands(o.Cost.Alpha)
	tab, err := o.layerDP(ctx, g, cands, mats, &st)
	if err != nil {
		t.Fatal(err)
	}
	periodic := checkStackable(cands[0], cands[len(cands)-1]) == nil
	assign, layerCost := tab.layerPlan(len(g.Nodes), periodic)
	strat := strategyOf(planOf(cands, assign, layerCost, periodic), layers)
	strat.Stats = st
	return strat
}

// TestBoundPrunedMatchesUnpruned pins pruned ≡ unpruned at production
// scale: on the V100, superpod and mixed profiles, at α ∈ {0, 1e-12,
// 1e-10}, for the six paper models at 4–16 devices, Plan (whose DP runs on
// the bound's survivors) returns the Seqs, Intra and LayerCost bits of the
// layer DP over the full space, and drops at least one candidate.
func TestBoundPrunedMatchesUnpruned(t *testing.T) {
	if testing.Short() {
		t.Skip("162-cell grid skipped under -short")
	}
	for _, prof := range boundProfiles {
		for _, alpha := range boundAlphas {
			for _, cfg := range model.All() {
				g, err := model.BuildBlock(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, devices := range []int{4, 8, 16} {
					label := fmt.Sprintf("%s/α=%g/%s@%d", prof.Name, alpha, cfg.Name, devices)
					mdl := cost.NewModel(device.MustCluster(devices, 4, prof))
					mdl.Alpha = alpha
					o := NewOptimizer(mdl)
					o.Cache = NewSearchCache()
					got, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameStrategy(t, label, got, unprunedPlan(t, o, g, cfg.Layers))
					if got.Stats.CandsPruned == 0 {
						t.Errorf("%s: the bound dropped no candidate", label)
					}
				}
			}
		}
	}
}

// FuzzRelaxedBoundBelowMinMarginal checks the relaxed bound against the
// textbook min-marginal on the textbook oracle's cells: a decoded paper
// model on 4 or 8 devices, profile, α and node v. For every candidate c of
// v, LB_v(c) (relaxedBound) must be at most M(v, c)·(1+δ), where M is the
// textbook DP's minimum with v pinned to c (textbookPinned) and δ the
// survivor test's rounding margin (boundMargin): the inequality the
// survivor proof rests on. The node-only bound LB₀ (relaxedBound with every
// edge read as zero), which the edge fill is planned from, must be at most
// LB at every candidate of every node. Layout: model, devices, profile, α,
// node, each byte taken modulo its range, missing bytes read as zero.
func FuzzRelaxedBoundBelowMinMarginal(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 3})  // OPT-175B@4, V100, α 1e-12, qkt
	f.Add([]byte{3, 1, 1, 0, 0})  // Llama2-70B@8, superpod, α 0, the anchor
	f.Add([]byte{5, 1, 2, 2, 12}) // BLOOM-176B@8, mixed, α 1e-10, the tail
	f.Add([]byte{0, 0, 0, 0, 7})  // OPT-6.7B@4, V100, α 0, add1
	f.Add([]byte{2, 1, 0, 1, 5})  // Llama2-7B@8, V100, α 1e-12, av
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		cfg := model.All()[r.intn(len(model.All()))]
		devices := []int{4, 8}[r.intn(2)]
		prof := boundProfiles[r.intn(len(boundProfiles))]
		alpha := boundAlphas[r.intn(len(boundAlphas))]
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := r.intn(len(g.Nodes))
		mdl := cost.NewModel(device.MustCluster(devices, 4, prof))
		mdl.Alpha = alpha
		o := NewOptimizer(mdl)
		o.Cache = NewSearchCache()
		st := SearchStats{Workers: o.Workers()}
		in, err := o.prepare(context.Background(), g, &st)
		if err != nil {
			t.Fatal(err)
		}
		mats := fillAll(t, o, g, in, &st)
		cands := in.cands(alpha)
		periodic := checkStackable(cands[0], cands[len(cands)-1]) == nil
		lb := relaxedBound(g, cands, mats, periodic)
		lb0 := relaxedBound(g, cands, nil, periodic)
		for u := range lb {
			for c := range lb[u] {
				if lb0[u][c] > lb[u][c] {
					t.Fatalf("%s@%d %s α=%g node %d candidate %d: node-only bound %v above the bound %v",
						cfg.Name, devices, prof.Name, alpha, u, c, lb0[u][c], lb[u][c])
				}
			}
		}
		slack := 1 + boundMargin(g)
		for c := range cands[v].seqs {
			_, _, m := textbookPinned(t, g, in, mats, alpha, v, c).pick(periodic)
			if lb[v][c] > m*slack {
				t.Fatalf("%s@%d %s α=%g node %d candidate %d: bound %v above the min-marginal %v",
					cfg.Name, devices, prof.Name, alpha, v, c, lb[v][c], m)
			}
		}
	})
}
