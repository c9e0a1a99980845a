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
// optimizer's cluster. A search makes one and shares it across its edge
// builds; it never outlives the search, so cold calls stay cold.
func (o *Optimizer) newOverlapTables() *cost.OverlapTables {
	return cost.NewOverlapTables(o.Cost.Cluster.NumDevices, o.Cost.Cluster.DevicesPerNode)
}

// edgeBuild is one edge matrix under construction: the edge's plan, its
// row and column groups with one representative candidate each, the matrix,
// and the calc that fills it — nil on the direct Measure path, which an
// edge whose pattern tables would exceed cost's table limit takes. key is
// the calc's direct fraction key.
type edgeBuild struct {
	plan             *cost.EdgePlan
	src, dst         *nodeCands
	rowReps, colReps []int32
	m                *edgeMat
	calc             *cost.EdgeCalc
	key              string
}

// prepareEdge groups edge e's candidates by interface class, allocates its
// matrix and builds the edge's cost.EdgeCalc — per-axis overlap tables that
// make each cell a handful of table-row products instead of a full device
// sweep, with bit-identical results — on ot, the search's registry, which
// the edges of one search share. Both the grouping and the calc read the
// endpoint spaces' interned patterns. The calc is nil when its tables would
// exceed cost's table limit, which some edges reach at 64 devices with 32
// or more devices per node; those edges take the Measure fill.
func (o *Optimizer) prepareEdge(g *graph.Graph, e *graph.Edge, src, dst *nodeCands, ot *cost.OverlapTables) *edgeBuild {
	srcPats, _ := src.patterns()
	_, dstPats := dst.patterns()
	plan := o.Cost.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(srcPats, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dstPats, plan.DstRelevantAxes())
	b := &edgeBuild{plan: plan, src: src, dst: dst, rowReps: rowReps, colReps: colReps,
		m: &edgeMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps),
			vals: make([]float64, len(rowReps)*len(colReps))}}
	if b.calc = plan.NewCalc(ot, srcPats, rowReps, dstPats, colReps); b.calc != nil {
		b.key = b.calc.FracKey(false)
	}
	return b
}

// fracGroup is one fill task of the edge phase: the matrices that share the
// leader's coverage-fraction structure, directly or transposed (members[0]
// is the leader itself), or a lone matrix on the direct Measure path
// (lead.calc == nil, no members).
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
		if b.calc == nil {
			groups = append(groups, &fracGroup{lead: b})
			continue
		}
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

// fill computes the group's matrices, rows banded on up to w workers. A
// calc group runs one BlockEval per band: each leader row's fractions are
// computed once — memo probe or compute() per cell — and written into every
// member, and the band-private memos amortize across all its rows (with one
// worker, across the whole matrix). Released memos go back to the search's
// registry for its later matrices.
func (gr *fracGroup) fill(m *cost.Model, w int) {
	b := gr.lead
	if b.calc == nil {
		parallelRows(w, b.m.nr, func(r int) {
			row := b.m.row(r)
			srcIface := b.src.out[b.rowReps[r]]
			for c, cj := range b.colReps {
				row[c] = m.RedistributeDetail(b.plan.Measure(srcIface, b.dst.in[cj]))
			}
		})
		return
	}
	parallelChunks(w, b.m.nr, func(lo, hi int) {
		be := b.calc.Block()
		for r := lo; r < hi; r++ {
			be.FillRow(m, r, gr.members)
		}
		be.Release()
	})
}

// buildEdgeMats computes the grouped cost matrix of each edge (mats[i] for
// edges[i]) in two pool passes on up to w workers: prepare every edge on the
// search's registry ot, then fill one fracGroup per task. Matrices that share a fraction structure —
// a layer's repeated linear-input edges, or an edge and its transpose
// (DESIGN.md §5.23) — get each fraction computed once. fracCells counts the
// cells whose fractions were computed: the leaders' and the direct Measure
// path's. The matrices are bit-identical to per-edge Measure fills.
func (o *Optimizer) buildEdgeMats(ctx context.Context, g *graph.Graph, edges []*graph.Edge, cands []*nodeCands, ot *cost.OverlapTables, w int) (mats []*edgeMat, fracCells int64, err error) {
	builds := make([]*edgeBuild, len(edges))
	if err := RunTasks(ctx, w, len(edges), func(i int) {
		e := edges[i]
		builds[i] = o.prepareEdge(g, e, cands[e.Src], cands[e.Dst], ot)
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
