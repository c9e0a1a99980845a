// Exhaustive-search oracle used to validate the segmented DP's optimality
// on small graphs/machines (the paper proves optimality in §5.2; we check it
// empirically as well).
package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Exhaustive enumerates every joint assignment of candidate sequences for a
// single layer of g and returns the minimal-cost strategy. Exponential in
// the node count — intended for validation only.
func (o *Optimizer) Exhaustive(g *graph.Graph) (*Strategy, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	w := o.Workers()
	cands := make([]*nodeCands, len(g.Nodes))
	total := 1.0
	for i, op := range g.Nodes {
		cands[i] = o.evalNode(op, w)
		total *= float64(len(cands[i].seqs))
		if total > 5e7 {
			return nil, fmt.Errorf("core: exhaustive space too large (>5e7 assignments)")
		}
	}
	edgeMats := make(map[*graph.Edge]*edgeMat)
	ot := o.newOverlapTables()
	for _, e := range g.Edges {
		edgeMats[e] = o.buildEdgeMat(g, e, cands[e.Src], cands[e.Dst], ot, w)
	}

	assign := make([]int, len(g.Nodes))
	best := math.Inf(1)
	bestAssign := make([]int, len(g.Nodes))

	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return // partial costs only grow (all terms non-negative)
		}
		if i == len(g.Nodes) {
			best = acc
			copy(bestAssign, assign)
			return
		}
		for ci := range cands[i].seqs {
			assign[i] = ci
			c := acc + cands[i].total[ci]
			for _, e := range g.InEdges(i) {
				c += edgeMats[e].at(int32(assign[e.Src]), int32(ci))
			}
			rec(i+1, c)
		}
	}
	rec(0, 0)

	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("core: exhaustive search found no assignment")
	}
	strat := &Strategy{
		Seqs:       make([]partition.Seq, len(g.Nodes)),
		Intra:      make([]cost.Intra, len(g.Nodes)),
		LayerCost:  best,
		TotalCost:  best,
		Layers:     1,
		SpaceSizes: make([]int, len(g.Nodes)),
	}
	for i := range g.Nodes {
		strat.Seqs[i] = cands[i].seqs[bestAssign[i]]
		strat.Intra[i] = cands[i].intra[bestAssign[i]]
		strat.SpaceSizes[i] = len(cands[i].seqs)
	}
	return strat, nil
}
