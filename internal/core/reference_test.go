package core

import (
	"context"
	"math"

	"repro/internal/cost"
	"repro/internal/graph"
)

// referencePlan is the uncached search the production search must match
// bit for bit. It plans g for o's cost model and options on one worker,
// ignoring o.Cache and o.Opts.Parallelism:
//   - every node is evaluated by evalNode on its own, with no signature memo;
//   - every edge gets its own calc-less edgeBuild, with no edge dedup, and
//     is filled cell by cell through EdgePlan.Measure (fracGroup.fill's
//     Measure path), so neither the edge calc nor fraction sharing runs;
//   - the layer DP is production's layerDP, but the layer every layer runs
//     is picked here: for a graph whose head and tail spaces are
//     index-identical, the first a minimizing C(a, a) by a plain scan of
//     every head candidate, run as the layer a→a; for any other graph, the
//     table's free minimum, and only at one layer.
//
// No cross-call cache tier is read or written.
func referencePlan(o *Optimizer, g *graph.Graph, layers int) (*Strategy, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		return nil, err
	}
	stats := SearchStats{Workers: 1}
	cands := make([]*nodeCands, len(g.Nodes))
	spaceSizes := make([]int, len(g.Nodes))
	for i, op := range g.Nodes {
		cands[i] = o.evalNode(op, 1)
		spaceSizes[i] = len(cands[i].seqs)
		stats.CandidatesEvaluated += spaceSizes[i]
		stats.CandsTotal += spaceSizes[i]
	}
	stats.NodeEvals = len(g.Nodes)

	edgeMats := make(map[*graph.Edge]*edgeMat, len(g.Edges))
	for _, e := range g.Edges {
		b := measureBuild(o.Cost, g, e, cands[e.Src], cands[e.Dst])
		(&fracGroup{lead: b}).fill(o.Cost, 1)
		edgeMats[e] = b.m
		stats.EdgeCellsEvaluated += int64(b.m.nr) * int64(b.m.nc)
	}
	stats.EdgeMatsBuilt = len(g.Edges)

	t, err := o.layerDP(context.Background(), g, cands, edgeMats, &stats)
	if err != nil {
		return nil, err
	}
	var ia, ib int32
	switch err := checkStackable(cands[0], cands[len(g.Nodes)-1]); {
	case err == nil:
		best := math.Inf(1)
		for a := range cands[0].seqs {
			if c := t.headBase[a] + t.cost[t.rowCls[a]][a]; c < best {
				best, ia = c, int32(a)
			}
		}
		ib = ia
	case layers > 1:
		return nil, err
	default:
		ia, ib = t.argMin()
	}
	assign := make([]int32, len(g.Nodes))
	reconstruct(t, ia, ib, assign)
	strat := strategyOf(cands, assign, t.headBase[ia]+t.cost[t.rowCls[ia]][ib], layers, spaceSizes)
	strat.Stats = stats
	return strat, nil
}

// measureBuild is edge e's calc-less edgeBuild: its candidates grouped by
// interface class on the axes the edge moves, and a zeroed matrix.
func measureBuild(m *cost.Model, g *graph.Graph, e *graph.Edge, src, dst *nodeCands) *edgeBuild {
	srcPats, _ := src.patterns()
	_, dstPats := dst.patterns()
	plan := m.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(srcPats, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dstPats, plan.DstRelevantAxes())
	return &edgeBuild{plan: plan, src: src, dst: dst, rowReps: rowReps, colReps: colReps,
		m: &edgeMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps),
			vals: make([]float64, len(rowReps)*len(colReps))}}
}
