package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/partition"
)

// checkTier drives one tier through its contract: entries up to the cap
// coexist, a present key is never overwritten, an insert past the cap
// flushes the tier and keeps the new entry, a value larger than the cap on
// its own is neither cached nor flushes anything, reset empties it, and merge
// inserts in sorted key order, so the entries that survive a flush do not
// depend on map order. mk returns a fresh value pinning the given cells.
func checkTier[V comparable](t *testing.T, tr *tier[V], mk func(cells int) V) {
	t.Helper()
	tr.cap = 10
	a, b := mk(4), mk(4)
	tr.put("a", a)
	tr.put("b", b)
	if tr.len() != 2 || tr.cells != 8 {
		t.Fatalf("two inserts under the cap: %d entries, %d cells; want 2, 8", tr.len(), tr.cells)
	}
	tr.put("b", mk(1))
	if tr.get("b") != b || tr.cells != 8 {
		t.Fatal("a second insert under a present key replaced it")
	}
	c := mk(3)
	tr.put("c", c)
	if tr.len() != 1 || tr.get("c") != c || tr.cells != 3 {
		t.Fatalf("insert past the cap left %d entries (%d cells); want only the new one", tr.len(), tr.cells)
	}
	var zero V
	tr.put("big", mk(11))
	if tr.get("big") != zero || tr.len() != 1 || tr.get("c") != c || tr.cells != 3 {
		t.Fatalf("a value over the cap: %d entries, %d cells; want it uncached and c kept", tr.len(), tr.cells)
	}
	tr.reset()
	if tr.len() != 0 || tr.cells != 0 {
		t.Fatalf("reset left %d entries, %d cells", tr.len(), tr.cells)
	}

	// x and y fill the cap; z, merged last, flushes them.
	z := mk(4)
	tr.merge(map[string]V{"z": z, "y": mk(4), "x": mk(4)})
	if tr.len() != 1 || tr.get("z") != z {
		t.Fatalf("merge past the cap kept %d entries; want only the last key in sorted order", tr.len())
	}
}

// TestSearchCacheTiers runs checkTier over both tiers of a SearchCache,
// each with values its own size function counts as the given cells.
func TestSearchCacheTiers(t *testing.T) {
	t.Run("layers", func(t *testing.T) {
		checkTier(t, NewSearchCache().layers, func(n int) *layerInputs {
			return &layerInputs{mats: []*prepMat{{nr: n, nc: 1}}}
		})
	})
	t.Run("plans", func(t *testing.T) {
		checkTier(t, NewSearchCache().plans, func(n int) *cachedPlan { return &cachedPlan{sizes: make([]int32, n)} })
	})
}

// TestLayerCells pins the layer tier's size function: per node entry and
// candidate five Intra words and six per token, the words of both pattern
// sets, plus every edge matrix's grouped cells, each unique entry and matrix
// once, plus the words of every matrix's calc and of the registry they share.
func TestLayerCells(t *testing.T) {
	// One candidate of a one-axis op on two devices: each set holds two
	// byte ids (one word), one pattern per slot (two widths, four starts)
	// and three slot offsets.
	pats := func() *cost.Patterns {
		return cost.NewPatterns([]*cost.Iface{{NumAxes: 1, Fwd: make([]float64, 2), Bwd: make([]float64, 2), Width: make([]float64, 1)}})
	}
	e := &nodeEntry{
		seqs:    []partition.Seq{{Tokens: make([]partition.Token, 2)}},
		intra:   make([]cost.Intra, 1),
		outPats: pats(),
		inPats:  pats(),
	}
	in := &layerInputs{
		slots:  []*nodeEntry{e},
		slotOf: []int{0, 0},
		mats:   []*prepMat{{nr: 3, nc: 2}},
		matOf:  []int{0},
	}
	if got, want := layerCells(in), int64(5+2*6+2*(1+2+4+3)+3*2); got != want {
		t.Fatalf("layerCells = %d, want %d", got, want)
	}

	// A prepared entry also pins every matrix's calc and the registry they
	// share, which its later fills read.
	g := linearChain()
	o := optimizerFor(t, 8, 4)
	prep, err := o.prepare(context.Background(), g, &SearchStats{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := layerCells(&layerInputs{slots: prep.slots, mats: prep.mats})
	fill := prep.ot.Words()
	for _, gr := range prep.groups {
		for _, mb := range gr.members {
			fill += mb.Calc.Words()
		}
	}
	if fill <= 0 {
		t.Fatalf("the calcs and registry count %d words", fill)
	}
	if got := layerCells(prep); got != base+fill {
		t.Fatalf("layerCells = %d, want %d for the nodes and matrices plus %d for the calcs and registry", got, base+fill, fill)
	}
}

// storedCells counts the cells the stores of in's fraction groups hold.
func storedCells(in *layerInputs) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, gr := range in.groups {
		for _, row := range gr.stored {
			n += int64(len(row))
		}
	}
	return n
}

// TestLayerCellsBoundsStore pins that layerCells stays a true bound on a
// layer entry whose stores grow after insertion, which insertLocked never
// re-counts. On OPT-6.7B and OPT-175B at 16 devices, a cold search stores
// exactly the member cells it filled (EdgeCellsEvaluated), at most the nr·nc
// cells per matrix that layerCells counts. Each α shift of alphaShiftSeq on
// the same entry then grows the stores by exactly the cells it filled, and
// they never pass that count. The same holds when the shifts run
// concurrently on one entry (run under -race in CI). layerCells itself
// never moves, and some shift must grow a store (OPT-6.7B@16's first does).
func TestLayerCellsBoundsStore(t *testing.T) {
	var grown int64
	for _, cfg := range []model.Config{model.OPT6B7(), model.OPT175B()} {
		g, err := model.BuildBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := PlanRequest{Graph: g, Layers: cfg.Layers}
		optAt := func(alpha float64, cache *SearchCache) *Optimizer {
			mdl := cost.NewModel(device.MustCluster(16, 4, device.V100Profile()))
			mdl.Alpha = alpha
			o := NewOptimizer(mdl)
			o.Cache = cache
			return o
		}
		// cold runs the cold search at alphaShiftSeq[0] on cache and checks
		// its entry, whose cell count and matrix cells it returns.
		cold := func(label string, cache *SearchCache) (in *layerInputs, limit, matCells int64) {
			o := optAt(alphaShiftSeq[0], cache)
			s, err := o.Plan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			in = cache.layers.get(string(appendLayerCrossKey(o.appendEnvSig(nil), g)))
			if in == nil {
				t.Fatalf("%s: no layer entry", label)
			}
			for _, m := range in.mats {
				matCells += int64(m.nr) * int64(m.nc)
			}
			limit = layerCells(in)
			if got := storedCells(in); got != s.Stats.EdgeCellsEvaluated || got > matCells || matCells > limit {
				t.Fatalf("%s: cold search stores %d cells, filled %d; matrices hold %d cells, layerCells counts %d",
					label, got, s.Stats.EdgeCellsEvaluated, matCells, limit)
			}
			return in, limit, matCells
		}
		check := func(label string, in *layerInputs, filled, limit, matCells int64) {
			if got := storedCells(in); got != filled || got > matCells {
				t.Fatalf("%s: stores hold %d cells, filled %d, matrices hold %d", label, got, filled, matCells)
			}
			if got := layerCells(in); got != limit {
				t.Fatalf("%s: layerCells moved %d → %d", label, limit, got)
			}
		}

		name := fmt.Sprintf("%s@16", cfg.Name)
		cache := NewSearchCache()
		in, limit, matCells := cold(name, cache)
		filled := storedCells(in)
		grown -= filled
		for i, alpha := range alphaShiftSeq[1:] {
			cache.plans.reset()
			s, err := optAt(alpha, cache).Plan(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			filled += s.Stats.EdgeCellsEvaluated
			check(fmt.Sprintf("%s shift %d α=%g", name, i+1, alpha), in, filled, limit, matCells)
		}
		grown += filled

		shared := NewSearchCache()
		in, limit, matCells = cold(name+" concurrent", shared)
		filled = storedCells(in)
		shifts := alphaShiftSeq[1:4]
		got := make([]*Strategy, len(shifts))
		errs := make([]error, len(shifts))
		var wg sync.WaitGroup
		for i, alpha := range shifts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = optAt(alpha, shared).Plan(context.Background(), req)
			}()
		}
		wg.Wait()
		for i := range shifts {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			filled += got[i].Stats.EdgeCellsEvaluated
		}
		check(name+" concurrent shifts", in, filled, limit, matCells)
	}
	if grown == 0 {
		t.Fatal("no shift grew a store: the growth after insertion went unchecked")
	}
}

// TestPlanCells pins the plan tier's size function: per node six words per
// token, five Intra words and one for its space size.
func TestPlanCells(t *testing.T) {
	e := &cachedPlan{
		seqs:  []partition.Seq{{Tokens: make([]partition.Token, 2)}, {}},
		intra: make([]cost.Intra, 2),
		sizes: make([]int32, 2),
	}
	if got, want := planCells(e), int64(2*6+2*5+2); got != want {
		t.Fatalf("planCells = %d, want %d", got, want)
	}
}
