package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// fullFillPlan runs o's search of g the way a search ran before the edge
// fill became bound-first: prepare, every edge cell filled (fillAll), then
// solve, whose own fills then find nothing left to fill.
func fullFillPlan(t *testing.T, o *Optimizer, g *graph.Graph, layers int) *Strategy {
	t.Helper()
	ctx := context.Background()
	st := SearchStats{Workers: o.Workers()}
	in, err := o.prepare(ctx, g, &st)
	if err != nil {
		t.Fatal(err)
	}
	fillAll(t, o, g, in, &st)
	full := st.EdgeFracCells
	e, err := o.solve(ctx, g, in, o.Cost.Alpha, layers, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeFracCells != full {
		t.Fatalf("solve filled %d cells of fully filled matrices", st.EdgeFracCells-full)
	}
	strat := strategyOf(e, layers)
	strat.Stats = st
	return strat
}

// TestBoundFirstMatchesFullFill pins the bound-first edge fill: on the V100,
// superpod and mixed profiles, at α ∈ {0, 1e-12, 1e-10}, for the six paper
// models at 4–16 devices and the unstackable OPT-6.7B MLP, a cold Plan, which
// fills only the cells the node-only bound's survivors read, returns the
// Seqs, Intra and LayerCost bits of solve over fully filled matrices, and
// computes no more leader fractions than the full fill. Under -short only
// the V100 cells at 4 and 8 devices run.
func TestBoundFirstMatchesFullFill(t *testing.T) {
	type cell struct {
		cfg    model.Config
		g      *graph.Graph
		layers int
	}
	var cells []cell
	for _, cfg := range model.All() {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{cfg, g, cfg.Layers})
	}
	mlp, err := model.BuildMLP(model.OPT6B7())
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, cell{model.OPT6B7(), mlp, 1})
	for pi, prof := range boundProfiles {
		for _, alpha := range boundAlphas {
			for _, c := range cells {
				for _, devices := range []int{4, 8, 16} {
					if testing.Short() && (pi > 0 || devices > 8) {
						continue
					}
					label := fmt.Sprintf("%s/α=%g/%s/%s@%d", prof.Name, alpha, c.cfg.Name, c.g.Name, devices)
					mdl := cost.NewModel(device.MustCluster(devices, 4, prof))
					mdl.Alpha = alpha
					o := NewOptimizer(mdl)
					o.Cache = NewSearchCache()
					got, err := o.Plan(context.Background(), PlanRequest{Graph: c.g, Layers: c.layers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := fullFillPlan(t, o, c.g, c.layers)
					sameStrategy(t, label, got, want)
					if got.Stats.EdgeFracCells > want.Stats.EdgeFracCells {
						t.Errorf("%s: bound-first fill computed %d leader cells, the full fill %d",
							label, got.Stats.EdgeFracCells, want.Stats.EdgeFracCells)
					}
				}
			}
		}
	}
}

// alphaShiftSeq is the α sequence TestAlphaShiftGrowsFill runs on one
// cache: a cold search, then shifts to a larger, a smaller and an unseen α,
// and back to the first.
var alphaShiftSeq = []float64{1e-12, 1e-10, 0, 1e-11, 1e-12}

// TestAlphaShiftGrowsFill runs one cache through alphaShiftSeq on OPT-6.7B
// and OPT-175B at 8 and 16 devices, the plan tier reset before every search
// so each shift is a layer hit. Every answer must equal a cold search's bit
// for bit; every shift must build no matrix and serve its matrices from the
// layer tier; the repeat of an α already seen must fill no cell; some shift
// must grow a rectangle (OPT-6.7B@16's first does). The cells
// of every filled rectangle must then equal the fully filled matrices'. A
// second cache, warmed at the first α, takes the other α values as
// concurrent shifts on its one entry (run under -race in CI), each again a
// cold search's answer.
func TestAlphaShiftGrowsFill(t *testing.T) {
	var grown int64 // leader cells the shifts filled, over every cell
	for _, cfg := range []model.Config{model.OPT6B7(), model.OPT175B()} {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, devices := range []int{8, 16} {
			name := fmt.Sprintf("%s@%d", cfg.Name, devices)
			req := PlanRequest{Graph: g, Layers: cfg.Layers}
			optAt := func(alpha float64, cache *SearchCache) *Optimizer {
				mdl := cost.NewModel(device.MustCluster(devices, 4, device.V100Profile()))
				mdl.Alpha = alpha
				o := NewOptimizer(mdl)
				o.Cache = cache
				return o
			}
			cold := make(map[float64]*Strategy)
			for _, alpha := range alphaShiftSeq {
				if cold[alpha] == nil {
					s, err := optAt(alpha, NewSearchCache()).Plan(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					cold[alpha] = s
				}
			}

			cache := NewSearchCache()
			seen := make(map[float64]bool)
			for i, alpha := range alphaShiftSeq {
				label := fmt.Sprintf("%s step %d α=%g", name, i, alpha)
				cache.plans.reset()
				got, err := optAt(alpha, cache).Plan(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameStrategy(t, label, got, cold[alpha])
				s := got.Stats
				if i > 0 && (s.EdgeMatsBuilt != 0 || s.NodeEvals != 0 || s.CrossCallEdgeHits == 0) {
					t.Fatalf("%s: not a layer hit: %d matrices built, %d node evals, %d edge hits",
						label, s.EdgeMatsBuilt, s.NodeEvals, s.CrossCallEdgeHits)
				}
				if seen[alpha] && (s.EdgeFracCells != 0 || s.EdgeCellsEvaluated != 0) {
					t.Fatalf("%s: a repeated α filled %d leader and %d member cells", label, s.EdgeFracCells, s.EdgeCellsEvaluated)
				}
				t.Logf("%s: filled %d leader and %d member cells", label, s.EdgeFracCells, s.EdgeCellsEvaluated)
				if i > 0 {
					grown += s.EdgeFracCells
				}
				seen[alpha] = true
			}
			checkFilledCells(t, name, optAt(0, cache), g)

			shared := NewSearchCache()
			if _, err := optAt(alphaShiftSeq[0], shared).Plan(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			got := make([]*Strategy, len(alphaShiftSeq))
			errs := make([]error, len(alphaShiftSeq))
			for i, alpha := range alphaShiftSeq[1:4] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = optAt(alpha, shared).Plan(context.Background(), req)
				}()
			}
			wg.Wait()
			for i, alpha := range alphaShiftSeq[1:4] {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sameStrategy(t, fmt.Sprintf("%s concurrent α=%g", name, alpha), got[i], cold[alpha])
			}
			checkFilledCells(t, name+" concurrent", optAt(0, shared), g)
		}
	}
	if grown == 0 {
		t.Fatal("no shift grew a filled rectangle: the growth path went unchecked")
	}
}

// checkFilledCells compares every cell the stores of the layer entry o's
// cache holds for g hold with the same cell of freshly prepared, fully
// filled matrices: a leader or direct member's cell (r, c) and a transposed
// member's cell (c, r), read through the slots of every done row r and done
// column c. Every stored row must hold every member's cells at the store's
// width.
func checkFilledCells(t *testing.T, label string, o *Optimizer, g *graph.Graph) {
	t.Helper()
	in := o.Cache.layers.get(string(appendLayerCrossKey(o.appendEnvSig(nil), g)))
	if in == nil {
		t.Fatalf("%s: no layer entry", label)
	}
	ref, err := o.prepare(context.Background(), g, &SearchStats{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillAll(t, o, g, ref, &SearchStats{Workers: 1})
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, gr := range in.groups {
		for s, row := range gr.stored {
			if len(row) != len(gr.members)*gr.width {
				t.Fatalf("%s: stored row %d holds %d cells, want %d members × width %d", label, s, len(row), len(gr.members), gr.width)
			}
		}
	}
	for b, m := range in.mats {
		gr, want := m.gr, ref.mats[b].flat()
		for r, rs := range gr.rowSlot {
			for c, cs := range gr.colSlot {
				if rs < 0 || cs < 0 {
					continue
				}
				i, j := r, c
				if gr.members[m.k].Transposed {
					i, j = c, r
				}
				if x, y := gr.stored[rs][m.k*gr.width+int(cs)], want.vals[i*want.nc+j]; x != y {
					t.Fatalf("%s: matrix %d cell (%d,%d) is %v, the full fill's %v", label, b, i, j, x, y)
				}
			}
		}
	}
}
