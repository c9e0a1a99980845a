// Grouped edge-cost matrices: two candidates whose interfaces agree on the
// axes an edge actually moves produce identical inter-operator costs, so the
// (|P1| × |P2|) matrix of interC values collapses to a much smaller
// (uniqueRows × uniqueCols) core plus row/column group maps. The Bellman
// min-plus step then runs over groups instead of raw candidates, which is
// what keeps 32-device searches in the seconds range (paper §5.3).
package core

import (
	"context"
	"encoding/binary"

	"repro/internal/cost"
	"repro/internal/graph"
)

// edgeMat is a grouped inter-operator cost matrix. The cell core is stored
// as one flat row-major slice (group row r at vals[r*nc:(r+1)*nc]) so the DP
// transposes and row walks are linear passes over contiguous memory instead
// of per-row pointer chases.
type edgeMat struct {
	// rows[i] / cols[j] map candidate indices to group ids.
	rows, cols []int32
	// nr × nc is the grouped core's shape; vals[r*nc+c] is the cost for
	// (row group r, col group c).
	nr, nc int
	vals   []float64
}

// at returns the cost for candidate pair (i, j).
func (m *edgeMat) at(i, j int32) float64 { return m.vals[int(m.rows[i])*m.nc+int(m.cols[j])] }

// row returns group row r as a slice view into the flat storage.
func (m *edgeMat) row(r int) []float64 { return m.vals[r*m.nc : (r+1)*m.nc] }

// numRowGroups returns the distinct-row count.
func (m *edgeMat) numRowGroups() int { return m.nr }

// numColGroups returns the distinct-column count.
func (m *edgeMat) numColGroups() int { return m.nc }

// ifaceGroups partitions candidates by their interface restricted to the
// relevant axes, returning per-candidate group ids and one representative
// candidate per group, in first-seen order. Candidates group by their
// forward and backward pattern ids on those axes (cost.Patterns), which are
// assigned by exact byte equality, so two distinct interfaces can never
// share a row.
func ifaceGroups(ps *cost.Patterns, axes []int) (ids []int32, reps []int32) {
	byKey := make(map[string]int32)
	ids = make([]int32, ps.Len())
	var key []byte
	for i := range ids {
		key = key[:0]
		for _, ax := range axes {
			key = binary.LittleEndian.AppendUint32(key, uint32(ps.ID(i, ax, true)))
			key = binary.LittleEndian.AppendUint32(key, uint32(ps.ID(i, ax, false)))
		}
		id, ok := byKey[string(key)]
		if !ok {
			id = int32(len(reps))
			byKey[string(key)] = id
			reps = append(reps, int32(i))
		}
		ids[i] = id
	}
	return ids, reps
}

// newOverlapTables returns an empty overlap-vector registry for the
// optimizer's cluster. A search makes one and shares it, with the fraction
// memos it holds, across its edge builds and fills; it never outlives the
// search, so cold calls stay cold.
func (o *Optimizer) newOverlapTables() *cost.OverlapTables {
	return cost.NewOverlapTables(o.Cost.Cluster.NumDevices, o.Cost.Cluster.DevicesPerNode)
}

// edgeBuild is one edge matrix under construction and the calc that fills
// it. key is the calc's direct fraction key.
type edgeBuild struct {
	m    *edgeMat
	calc *cost.EdgeCalc
	key  string
}

// prepareEdge groups edge e's candidates by interface class, allocates its
// matrix and builds the edge's cost.EdgeCalc — per-axis overlap tables that
// make each cell a handful of table-row products instead of a full device
// sweep, with bit-identical results — on ot, the search's registry, which
// the edges of one search share. Both the grouping and the calc read the
// endpoint spaces' interned patterns.
func (o *Optimizer) prepareEdge(g *graph.Graph, e *graph.Edge, src, dst *nodeEntry, ot *cost.OverlapTables) *edgeBuild {
	plan := o.Cost.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(src.outPats, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dst.inPats, plan.DstRelevantAxes())
	calc := plan.NewCalc(ot, src.outPats, rowReps, dst.inPats, colReps)
	return &edgeBuild{calc: calc, key: calc.FracKey(false),
		m: &edgeMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps),
			vals: make([]float64, len(rowReps)*len(colReps))}}
}

// fracGroup is one fill task of the edge phase: the matrices that share the
// leader's coverage-fraction structure, directly or transposed (members[0]
// is the leader itself).
type fracGroup struct {
	lead    *edgeBuild
	members []cost.FracMember
}

// fracGroups forms the fill tasks in build order. A build whose direct key
// matches a leader's joins that group as a direct member; one whose direct
// key matches a leader's transposed key joins it as a transposed member;
// any other build leads a new group. A build is never its own member, so a
// self-transposed edge is filled on its own.
func fracGroups(builds []*edgeBuild) []*fracGroup {
	var groups []*fracGroup
	direct := make(map[string]*fracGroup)
	transposed := make(map[string]*fracGroup)
	for _, b := range builds {
		if gr := direct[b.key]; gr != nil {
			gr.members = append(gr.members, cost.FracMember{Calc: b.calc, Vals: b.m.vals})
			continue
		}
		if gr := transposed[b.key]; gr != nil {
			gr.members = append(gr.members, cost.FracMember{Calc: b.calc, Vals: b.m.vals, Transposed: true})
			continue
		}
		gr := &fracGroup{lead: b, members: []cost.FracMember{{Calc: b.calc, Vals: b.m.vals}}}
		direct[b.key] = gr
		transposed[b.calc.FracKey(true)] = gr
		groups = append(groups, gr)
	}
	return groups
}

// fill computes the group's matrices, rows banded on up to w workers, with
// one BlockEval per band: each leader row's fractions are computed once —
// memo probe or compute() per cell — and written into every member. Each band holds one of the search's fraction memos, keyed by the
// registry's ids, and hands it back when done, so a fraction any earlier
// band computed, for any edge or direction, is a probe here.
func (gr *fracGroup) fill(m *cost.Model, w int) {
	b := gr.lead
	parallelChunks(w, b.m.nr, func(lo, hi int) {
		be := b.calc.Block()
		for r := lo; r < hi; r++ {
			be.FillRow(m, r, gr.members)
		}
		be.Release()
	})
}

// buildEdgeMats computes the grouped cost matrix of each edge (mats[i] for
// edges[i]) over the node entries ents (one per graph node) in two pool
// passes on up to w workers: prepare every edge on the search's registry ot,
// then fill one fracGroup per task. Matrices that share a fraction
// structure — a layer's repeated linear-input edges, or an edge and its transpose
// (DESIGN.md §5.23) — get each fraction computed once. fracCells counts the
// leaders' cells, whose fractions were computed. The matrices are
// bit-identical to per-edge Measure fills.
func (o *Optimizer) buildEdgeMats(ctx context.Context, g *graph.Graph, edges []*graph.Edge, ents []*nodeEntry, ot *cost.OverlapTables, w int) (mats []*edgeMat, fracCells int64, err error) {
	builds := make([]*edgeBuild, len(edges))
	if err := RunTasks(ctx, w, len(edges), func(i int) {
		e := edges[i]
		builds[i] = o.prepareEdge(g, e, ents[e.Src], ents[e.Dst], ot)
	}); err != nil {
		return nil, 0, err
	}
	groups := fracGroups(builds)
	inner := innerWorkers(w, len(groups))
	if err := RunTasks(ctx, w, len(groups), func(i int) { groups[i].fill(o.Cost, inner) }); err != nil {
		return nil, 0, err
	}
	mats = make([]*edgeMat, len(builds))
	for i, b := range builds {
		mats[i] = b.m
	}
	for _, gr := range groups {
		fracCells += int64(gr.lead.m.nr) * int64(gr.lead.m.nc)
	}
	return mats, fracCells, nil
}

// sumEdgeMats combines several grouped matrices over the same candidate
// pair into one (group refinement by pairing ids).
func sumEdgeMats(ms []*edgeMat) *edgeMat {
	if len(ms) == 1 {
		return ms[0]
	}
	type pairKey struct{ a, b int32 }
	refine := func(x, y []int32) ([]int32, [][2]int32) {
		byKey := map[pairKey]int32{}
		ids := make([]int32, len(x))
		var reps [][2]int32
		for i := range x {
			k := pairKey{x[i], y[i]}
			id, ok := byKey[k]
			if !ok {
				id = int32(len(reps))
				byKey[k] = id
				reps = append(reps, [2]int32{x[i], y[i]})
			}
			ids[i] = id
		}
		return ids, reps
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		rows, rowReps := refine(acc.rows, m.rows)
		cols, colReps := refine(acc.cols, m.cols)
		nr, nc := len(rowReps), len(colReps)
		out := &edgeMat{rows: rows, cols: cols, nr: nr, nc: nc,
			vals: make([]float64, nr*nc)}
		for r := 0; r < nr; r++ {
			arow := acc.row(int(rowReps[r][0]))
			mrow := m.row(int(rowReps[r][1]))
			orow := out.row(r)
			for c := range orow {
				orow[c] = arow[colReps[c][0]] + mrow[colReps[c][1]]
			}
		}
		acc = out
	}
	return acc
}
