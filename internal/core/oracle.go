// Exhaustive-search oracle used to validate the segmented DP's optimality
// on small graphs/machines (the paper proves optimality in §5.2; we check it
// empirically as well).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Exhaustive enumerates every joint assignment of candidate sequences for a
// single layer of g and returns the minimal-cost strategy. When g stacks
// (its head and tail spaces are index-identical) the tail is pinned to the
// head's candidate, so the optimum is the best periodic layer that Plan
// returns at every layer count. Exponential in the node count — intended
// for validation only.
func (o *Optimizer) Exhaustive(g *graph.Graph) (*Strategy, error) {
	if err := o.checkDevices(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	w := o.Workers()
	n := len(g.Nodes)
	ents := make([]*nodeEntry, n)
	cands := make([]*nodeCands, n)
	for i, op := range g.Nodes {
		ents[i] = o.evalNode(op, w)
		cands[i] = ents[i].withAlpha(o.Cost.Alpha)
	}
	periodic := n > 1 && checkStackable(cands[0], cands[n-1]) == nil
	total := 1.0
	for i := range cands {
		if !(periodic && i == n-1) {
			total *= float64(len(cands[i].seqs))
		}
		if total > 5e7 {
			return nil, fmt.Errorf("core: exhaustive space too large (>5e7 assignments)")
		}
	}
	mats, _, err := o.buildEdgeMats(context.Background(), g, g.Edges, ents, o.newOverlapTables(), w)
	if err != nil {
		return nil, err
	}
	edgeMats := make(map[*graph.Edge]*edgeMat)
	for i, e := range g.Edges {
		edgeMats[e] = mats[i]
	}

	assign := make([]int32, n)
	best := math.Inf(1)
	bestAssign := make([]int32, n)

	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return // partial costs only grow (all terms non-negative)
		}
		if i == n {
			best = acc
			copy(bestAssign, assign)
			return
		}
		for ci := range cands[i].seqs {
			if periodic && i == n-1 && int32(ci) != assign[0] {
				continue
			}
			assign[i] = int32(ci)
			c := acc + cands[i].total[ci]
			for _, e := range g.InEdges(i) {
				c += edgeMats[e].at(assign[e.Src], int32(ci))
			}
			rec(i+1, c)
		}
	}
	rec(0, 0)

	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("core: exhaustive search found no assignment")
	}
	return strategyOf(planOf(cands, bestAssign, best, periodic), 1), nil
}
