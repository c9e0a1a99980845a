// Textbook oracle for the layer DP: paper Eqs. 11–14 in their plain form,
// run on the inputs prepare builds with every matrix filled (fillAll), so the
// production DP — one grouped min-plus composition (compose) for every
// Bellman step and segment merge, on the min-plus kernel's lowest-key scan —
// is checked at the scales the paper reports against code that shares none
// of it. Only the node entries and
// the edge matrices are production's (the matrices are checked against Measure
// elsewhere); every matrix is read per candidate pair.
package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// textbookLayer is a whole-layer table C(p_0, p_n) from textbookDP.
type textbookLayer struct {
	cands []*nodeCands
	mats  map[*graph.Edge]*edgeMat
	cost  [][]float64 // cost[p0][pn]
}

// textbookDP runs Eqs. 11–14 over g's prepared inputs at α, with mats
// their filled matrices (fillAll): per segment one
// Bellman chain per head candidate (Eqs. 11–12), every (p_{j−1}, p_j) pair
// visited, then left-to-right merges as a triple loop over (p_a, p_m, p_b)
// (Eqs. 13–14). It fails unless every edge of g is priced exactly once.
func textbookDP(t *testing.T, g *graph.Graph, in *layerInputs, mats map[*graph.Edge]*edgeMat, alpha float64) *textbookLayer {
	t.Helper()
	return textbookRun(t, g, &textbookLayer{cands: in.cands(alpha), mats: mats})
}

// textbookPinned is textbookDP with node v pinned to candidate c: every
// other candidate of v costs +Inf, so the table's minimum is v's
// min-marginal at c, the cost of the best plan that runs c at v.
func textbookPinned(t *testing.T, g *graph.Graph, in *layerInputs, mats map[*graph.Edge]*edgeMat, alpha float64, v, c int) *textbookLayer {
	t.Helper()
	cands := in.cands(alpha)
	pinned := *cands[v]
	pinned.total = make([]float64, len(pinned.total))
	for i := range pinned.total {
		pinned.total[i] = math.Inf(1)
	}
	pinned.total[c] = cands[v].total[c]
	cands[v] = &pinned
	return textbookRun(t, g, &textbookLayer{cands: cands, mats: mats})
}

// textbookRun fills tl.cost from tl's candidates and matrices.
func textbookRun(t *testing.T, g *graph.Graph, tl *textbookLayer) *textbookLayer {
	t.Helper()
	priced := make(map[*graph.Edge]int, len(g.Edges))
	cuts := g.SegmentCuts()
	var acc [][]float64
	accA := cuts[0]
	for s := 0; s+1 < len(cuts); s++ {
		a, b := cuts[s], cuts[s+1]
		seg := tl.segment(g, a, b, priced)
		if acc == nil {
			acc = seg
			continue
		}
		var cross []*graph.Edge
		for _, e := range g.Edges {
			if e.Src == accA && e.Dst == b && e.IsExtended() {
				cross = append(cross, e)
				priced[e]++
			}
		}
		acc = tl.merge(acc, seg, a, cross)
	}
	for _, e := range g.Edges {
		if priced[e] != 1 {
			t.Fatalf("edge %d→%d priced %d times, want once", e.Src, e.Dst, priced[e])
		}
	}
	tl.cost = acc
	return tl
}

// segment is Eqs. 11–12 over nodes a..b: for every head candidate p_a, the
// chain C(p_a, p_j) = min over p_{j−1} of C(p_a, p_{j−1}) + e_{j−1,j}, plus
// node j's cost and the extended edges a→j. Chains run on all CPUs, one head
// candidate each.
func (tl *textbookLayer) segment(g *graph.Graph, a, b int, priced map[*graph.Edge]int) [][]float64 {
	// step[j-a-1] holds the edges into j from j−1; head[j-a-1] those from a
	// (for j = a+1 the two coincide, and the edges count as steps).
	step := make([][]*edgeMat, b-a)
	head := make([][]*edgeMat, b-a)
	for j := a + 1; j <= b; j++ {
		for _, e := range g.InEdges(j) {
			switch e.Src {
			case j - 1:
				step[j-a-1] = append(step[j-a-1], tl.mats[e])
			case a:
				head[j-a-1] = append(head[j-a-1], tl.mats[e])
			default:
				continue
			}
			priced[e]++
		}
	}
	n := func(i int) []float64 { return tl.cands[i].total }
	out := make([][]float64, len(n(a)))
	chain := func(pa int) {
		prev := make([]float64, len(n(a+1)))
		for pb, nb := range n(a + 1) {
			c := n(a)[pa] + nb
			for _, m := range step[0] {
				c += m.at(int32(pa), int32(pb))
			}
			prev[pb] = c
		}
		for j := a + 2; j <= b; j++ {
			cur := make([]float64, len(n(j)))
			for pj := range cur {
				cur[pj] = math.Inf(1)
			}
			for pp, v := range prev {
				for pj := range cur {
					c := v
					for _, m := range step[j-a-1] {
						c += m.at(int32(pp), int32(pj))
					}
					cur[pj] = min(cur[pj], c)
				}
			}
			for pj := range cur {
				cur[pj] += n(j)[pj]
				for _, m := range head[j-a-1] {
					cur[pj] += m.at(int32(pa), int32(pj))
				}
			}
			prev = cur
		}
		out[pa] = prev
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pa := range next {
				chain(pa)
			}
		}()
	}
	for pa := range out {
		next <- pa
	}
	close(next)
	wg.Wait()
	return out
}

// merge is Eqs. 13–14: out(p_a, p_b) = min over p_m of L(p_a, p_m) +
// R(p_m, p_b) − n_m(p_m), plus the extended edges a→b.
func (tl *textbookLayer) merge(left, right [][]float64, mid int, cross []*graph.Edge) [][]float64 {
	nm := tl.cands[mid].total
	out := make([][]float64, len(left))
	for pa, lrow := range left {
		row := make([]float64, len(right[0]))
		for pb := range row {
			best := math.Inf(1)
			for pm, l := range lrow {
				best = min(best, l+right[pm][pb]-nm[pm])
			}
			for _, e := range cross {
				best += tl.mats[e].at(int32(pa), int32(pb))
			}
			row[pb] = best
		}
		out[pa] = row
	}
	return out
}

// pick is the plain scan for the layer every layer runs: the first minimum
// of the diagonal C(a, a) when the graph stacks, the free minimum otherwise.
func (tl *textbookLayer) pick(periodic bool) (p0, pn int, best float64) {
	best = math.Inf(1)
	for a, row := range tl.cost {
		for b, c := range row {
			if (!periodic || a == b) && c < best {
				p0, pn, best = a, b, c
			}
		}
	}
	return p0, pn, best
}

// price sums the node costs and every edge of g under the assignment idx.
func (tl *textbookLayer) price(g *graph.Graph, idx []int32) float64 {
	var c float64
	for i, p := range idx {
		c += tl.cands[i].total[p]
	}
	for _, e := range g.Edges {
		c += tl.mats[e].at(idx[e.Src], idx[e.Dst])
	}
	return c
}

// indexOf maps each of strat's sequences to its candidate index in the
// node's space.
func (tl *textbookLayer) indexOf(t *testing.T, strat *Strategy) []int32 {
	t.Helper()
	idx := make([]int32, len(strat.Seqs))
	var want, got []byte
	for i, s := range strat.Seqs {
		want = s.AppendBinaryKey(want[:0])
		idx[i] = -1
		for k, c := range tl.cands[i].seqs {
			if got = c.AppendBinaryKey(got[:0]); bytes.Equal(got, want) {
				idx[i] = int32(k)
				break
			}
		}
		if idx[i] < 0 {
			t.Fatalf("node %d: returned sequence %v is not in its space", i, s)
		}
	}
	return idx
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// textbookCells are the golden cells the textbook checks: the three Table 2
// structures on V100 at 4–32 devices, and on the superpod and mixed-fleet
// profiles at their golden 4 and 8 devices.
func textbookCells() []struct {
	prof    device.Profile
	devices []int
} {
	return []struct {
		prof    device.Profile
		devices []int
	}{
		{device.V100Profile(), []int{4, 8, 16, 32}},
		{device.A100SuperPodProfile(), []int{4, 8}},
		{device.MixedA100V100Profile(), []int{4, 8}},
	}
}

// TestLayerDPMatchesTextbook checks production's layer DP, the bound-pruned
// solve Plan runs, against the textbook recursion on the three Table 2
// structures at every golden cell of textbookCells:
// Plan's LayerCost must equal the textbook minimum within 1e-12 relative,
// and the returned Seqs, priced by the textbook table at their head and tail
// and summed edge by edge, must equal that minimum too (ties may pick
// another witness). A 32-device cell runs 1.1e10 pair visits (two segment
// heads of 1,683 candidates, each chain up to 1,683 × 1,348 pairs per step)
// and takes about 15 s on two CPUs, so those cells run only without -short.
func TestLayerDPMatchesTextbook(t *testing.T) {
	for _, cell := range textbookCells() {
		for _, cfg := range []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()} {
			for _, devices := range cell.devices {
				name := fmt.Sprintf("%s@%d", cfg.Name, devices)
				if cell.prof.Name != device.V100Profile().Name {
					name = cell.prof.Name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					if devices == 32 && testing.Short() {
						t.Skip("32-device cells skipped under -short")
					}
					checkTextbookCell(t, cfg, cost.NewModel(device.MustCluster(devices, 4, cell.prof)))
				})
			}
		}
	}
}

// checkTextbookCell plans cfg's block on mdl at α 1e-12 and checks the plan
// against the textbook table (TestLayerDPMatchesTextbook).
func checkTextbookCell(t *testing.T, cfg model.Config, mdl *cost.Model) {
	t.Helper()
	g, err := model.BuildBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mdl.Alpha = 1e-12
	o := NewOptimizer(mdl)
	o.Cache = NewSearchCache()
	strat, err := o.Plan(context.Background(), PlanRequest{Graph: g, Layers: cfg.Layers})
	if err != nil {
		t.Fatal(err)
	}
	st := SearchStats{Workers: o.Workers()}
	in, err := o.prepare(context.Background(), g, &st)
	if err != nil {
		t.Fatal(err)
	}
	tl := textbookDP(t, g, in, fillAll(t, o, g, in, &st), o.Cost.Alpha)
	periodic := checkStackable(tl.cands[0], tl.cands[len(g.Nodes)-1]) == nil
	if !periodic {
		t.Fatal("a Table 2 block does not stack")
	}
	_, _, best := tl.pick(periodic)
	if !relClose(strat.LayerCost, best) {
		t.Fatalf("LayerCost %v, textbook minimum %v", strat.LayerCost, best)
	}
	idx := tl.indexOf(t, strat)
	p0, pn := idx[0], idx[len(idx)-1]
	if p0 != pn {
		t.Fatalf("returned layer runs head %d to tail %d, not a periodic layer", p0, pn)
	}
	if c := tl.cost[p0][pn]; !relClose(c, best) {
		t.Fatalf("returned head/tail (%d, %d) cost %v in the textbook table, minimum %v", p0, pn, c, best)
	}
	if c := tl.price(g, idx); !relClose(c, best) {
		t.Fatalf("returned Seqs price to %v edge by edge, textbook minimum %v", c, best)
	}
}
