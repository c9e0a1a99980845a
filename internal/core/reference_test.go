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
//   - every edge gets its own matrix, with no edge dedup, filled cell by
//     cell through EdgePlan.Measure, so neither the edge calc nor fraction
//     sharing runs;
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
	for i, op := range g.Nodes {
		cands[i] = o.evalNode(op, 1)
		stats.CandidatesEvaluated += len(cands[i].seqs)
		stats.CandsTotal += len(cands[i].seqs)
	}
	stats.NodeEvals = len(g.Nodes)

	edgeMats := make(map[*graph.Edge]*edgeMat, len(g.Edges))
	for _, e := range g.Edges {
		m := measureMat(o.Cost, g, e, cands[e.Src], cands[e.Dst])
		edgeMats[e] = m
		stats.EdgeCellsEvaluated += int64(m.nr) * int64(m.nc)
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
	strat := strategyOf(planOf(cands, assign, t.headBase[ia]+t.cost[t.rowCls[ia]][ib], false), layers)
	strat.Stats = stats
	return strat, nil
}

// measureMat is edge e's matrix over its candidates grouped by interface
// class on the axes the edge moves, each cell RedistributeDetail of
// EdgePlan.Measure on the groups' representatives.
func measureMat(m *cost.Model, g *graph.Graph, e *graph.Edge, src, dst *nodeCands) *edgeMat {
	re := newRefEdge(m, g, e, src, dst)
	mat := &edgeMat{rows: re.rows, cols: re.cols, nr: len(re.rowReps), nc: len(re.colReps),
		vals: make([]float64, len(re.rowReps)*len(re.colReps))}
	for r := range re.rowReps {
		re.fillRow(m, r, mat.row(r))
	}
	return mat
}

// refEdge is edge e's plan and its endpoint candidates grouped by interface
// class on the axes the edge moves, one representative per group.
type refEdge struct {
	plan                         *cost.EdgePlan
	src, dst                     *nodeCands
	rows, cols, rowReps, colReps []int32
}

func newRefEdge(m *cost.Model, g *graph.Graph, e *graph.Edge, src, dst *nodeCands) *refEdge {
	srcPats, _ := src.patterns()
	_, dstPats := dst.patterns()
	re := &refEdge{plan: m.PlanEdge(g, e), src: src, dst: dst}
	re.rows, re.rowReps = ifaceGroups(srcPats, re.plan.SrcRelevantAxes())
	re.cols, re.colReps = ifaceGroups(dstPats, re.plan.DstRelevantAxes())
	return re
}

// fillRow sets out[c] to RedistributeDetail of EdgePlan.Measure on row
// group r's and column group c's representatives.
func (re *refEdge) fillRow(m *cost.Model, r int, out []float64) {
	src := re.src.out[re.rowReps[r]]
	for c, cj := range re.colReps {
		out[c] = m.RedistributeDetail(re.plan.Measure(src, re.dst.in[cj]))
	}
}
