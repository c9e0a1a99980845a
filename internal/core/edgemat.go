// Grouped edge-cost matrices: two candidates whose interfaces agree on the
// axes an edge actually moves produce identical inter-operator costs, so the
// (|P1| × |P2|) matrix of interC values collapses to a much smaller
// (uniqueRows × uniqueCols) core plus row/column group maps. The Bellman
// min-plus step then runs over groups instead of raw candidates (paper
// §5.3). A search prepares every matrix but fills only the cells its pruned
// DP reads (DESIGN.md §5.40); a matrix's cells are filled by its fraction
// group, a rectangle of leader rows × leader columns at a time.
package core

import (
	"context"
	"encoding/binary"
	"time"

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
// optimizer's cluster. A cold search makes one and shares it, with the
// fraction memos it holds, across its edge builds and fills. Its layer entry
// keeps it for the fills of later α shifts, but every fill drops its memos
// (fillRestrict), so no search starts with another's fractions and cold
// calls stay cold.
func (o *Optimizer) newOverlapTables() *cost.OverlapTables {
	return cost.NewOverlapTables(o.Cost.Cluster.NumDevices, o.Cost.Cluster.DevicesPerNode)
}

// edgeBuild is one edge matrix and the calc that fills it. key is the
// calc's direct fraction key.
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
// endpoint spaces' interned patterns. The matrix is left unfilled.
func (o *Optimizer) prepareEdge(g *graph.Graph, e *graph.Edge, src, dst *nodeEntry, ot *cost.OverlapTables) *edgeBuild {
	plan := o.Cost.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(src.outPats, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dst.inPats, plan.DstRelevantAxes())
	calc := plan.NewCalc(ot, src.outPats, rowReps, dst.inPats, colReps)
	return &edgeBuild{calc: calc, key: calc.FracKey(false),
		m: &edgeMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps),
			vals: make([]float64, len(rowReps)*len(colReps))}}
}

// prepareEdges prepares edges[i] over the node entries ents (one per graph
// node) as builds[i], on up to w workers and the search's registry ot.
func (o *Optimizer) prepareEdges(ctx context.Context, g *graph.Graph, edges []*graph.Edge, ents []*nodeEntry, ot *cost.OverlapTables, w int) ([]*edgeBuild, error) {
	builds := make([]*edgeBuild, len(edges))
	err := RunTasks(ctx, w, len(edges), func(i int) {
		e := edges[i]
		builds[i] = o.prepareEdge(g, e, ents[e.Src], ents[e.Dst], ot)
	})
	return builds, err
}

// fracGroup is one fill task of the edge phase: the matrices that share the
// leader's coverage-fraction structure, directly or transposed (members[0]
// is the leader itself), and the rectangle of them filled so far.
type fracGroup struct {
	lead    *edgeBuild
	members []cost.FracMember
	// builds[k] is members[k]'s index in the builds the group was formed
	// from.
	builds []int
	// rowDone × colDone is the filled rectangle: every cell in a done
	// leader row and a done leader column is filled, in the leader and in
	// every member (at the transposed position in a transposed member).
	rowDone, colDone []bool
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
	for i, b := range builds {
		if gr := direct[b.key]; gr != nil {
			gr.members = append(gr.members, cost.FracMember{Calc: b.calc, Vals: b.m.vals})
			gr.builds = append(gr.builds, i)
			continue
		}
		if gr := transposed[b.key]; gr != nil {
			gr.members = append(gr.members, cost.FracMember{Calc: b.calc, Vals: b.m.vals, Transposed: true})
			gr.builds = append(gr.builds, i)
			continue
		}
		gr := &fracGroup{lead: b, members: []cost.FracMember{{Calc: b.calc, Vals: b.m.vals}}, builds: []int{i},
			rowDone: make([]bool, b.m.nr), colDone: make([]bool, b.m.nc)}
		direct[b.key] = gr
		transposed[b.calc.FracKey(true)] = gr
		groups = append(groups, gr)
	}
	return groups
}

// rowFill is one FillRow call: a leader row and the leader columns to fill
// in it.
type rowFill struct {
	r    int
	cols []int32
}

// growth returns the row fills that take the group's filled rectangle R×C
// to (R∪R′)×(C∪C′), R′ and C′ the leader rows and columns marked in
// needRows and needCols: every row of R′∖R over C∪C′, then every row of R
// over C′∖C, in ascending row order within each part. It fills no cell
// twice and no cell outside the grown rectangle.
func (gr *fracGroup) growth(needRows, needCols []bool) []rowFill {
	var newCols, allCols []int32
	for c, done := range gr.colDone {
		if done || needCols[c] {
			allCols = append(allCols, int32(c))
			if !done {
				newCols = append(newCols, int32(c))
			}
		}
	}
	var fills []rowFill
	for r, done := range gr.rowDone {
		if !done && needRows[r] && len(allCols) > 0 {
			fills = append(fills, rowFill{r, allCols})
		}
	}
	for r, done := range gr.rowDone {
		if done && len(newCols) > 0 {
			fills = append(fills, rowFill{r, newCols})
		}
	}
	return fills
}

// fill runs the row fills, banded on up to w workers, with one BlockEval
// per band: each leader row's fractions are computed once at its columns —
// memo probe or compute() per cell — and written into every member. Each
// band holds one of the search's fraction memos, keyed by the registry's
// ids, and hands it back when done, so a fraction any earlier band of the
// same fill computed, for any edge or direction, is a probe here.
func (gr *fracGroup) fill(m *cost.Model, fills []rowFill, w int) {
	parallelChunks(w, len(fills), func(lo, hi int) {
		be := gr.lead.calc.Block()
		for _, f := range fills[lo:hi] {
			be.FillRow(m, f.r, f.cols, gr.members)
		}
		be.Release()
	})
}

// growGroups grows every group's filled rectangle by the leader rows and
// columns needRows[i] and needCols[i] mark for groups[i], one pool task per
// group with fills on up to w workers, and returns the leader cells filled
// (whose fractions were computed) and the member cells filled, leaders
// included. Only once every fill has completed do the rectangles grow: a
// cancelled call returns ctx.Err() and leaves them as they were, so its
// partial writes are refilled, with the same values, by a later call.
func growGroups(ctx context.Context, m *cost.Model, groups []*fracGroup, needRows, needCols [][]bool, w int) (leadCells, cells int64, err error) {
	fills := make([][]rowFill, len(groups))
	var todo []int
	for i, gr := range groups {
		fills[i] = gr.growth(needRows[i], needCols[i])
		n := int64(0)
		for _, f := range fills[i] {
			n += int64(len(f.cols))
		}
		if n > 0 {
			todo = append(todo, i)
		}
		leadCells += n
		cells += n * int64(len(gr.members))
	}
	inner := innerWorkers(w, len(todo))
	if err := RunTasks(ctx, w, len(todo), func(k int) {
		i := todo[k]
		groups[i].fill(m, fills[i], inner)
	}); err != nil {
		return 0, 0, err
	}
	for i, gr := range groups {
		for r, need := range needRows[i] {
			gr.rowDone[r] = gr.rowDone[r] || need
		}
		for c, need := range needCols[i] {
			gr.colDone[c] = gr.colDone[c] || need
		}
	}
	return leadCells, cells, nil
}

// fillRestrict fills every cell of the matrices that the inputs restricted
// to the candidates keep[v] of every node v read, and returns that
// restriction (restrictLayer) of cands and edgeMats, the inputs at one α.
// Under the entry's mutex it grows each fraction group's filled rectangle
// by the leader rows and columns the kept candidates' groups occupy, on
// stats.Workers workers, drops the registry's fraction memos, so the cached
// entry pins none, and restricts. The filled cells are added to
// stats.EdgeFracCells (leaders) and stats.EdgeCellsEvaluated (every
// member), the time to stats.EdgeMatTime.
func (in *layerInputs) fillRestrict(ctx context.Context, m *cost.Model, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, keep [][]int32, stats *SearchStats) ([]*nodeCands, map[*graph.Edge]*edgeMat, error) {
	start := time.Now()
	// A direct member's rows and columns are its leader's; a transposed
	// member's rows are the leader's columns and its columns the leader's
	// rows.
	needRows, needCols := make([][]bool, len(in.groups)), make([][]bool, len(in.groups))
	type member struct {
		group      int
		transposed bool
	}
	of := make([]member, len(in.mats))
	for i, gr := range in.groups {
		needRows[i], needCols[i] = make([]bool, gr.lead.m.nr), make([]bool, gr.lead.m.nc)
		for k, b := range gr.builds {
			of[b] = member{i, gr.members[k].Transposed}
		}
	}
	for i, e := range g.Edges {
		s := in.matOf[i]
		mt, mb := in.mats[s], of[s]
		rows, cols := needRows[mb.group], needCols[mb.group]
		if mb.transposed {
			rows, cols = cols, rows
		}
		for _, c := range keep[e.Src] {
			rows[mt.rows[c]] = true
		}
		for _, c := range keep[e.Dst] {
			cols[mt.cols[c]] = true
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	lead, cells, err := growGroups(ctx, m, in.groups, needRows, needCols, stats.Workers)
	in.ot.DropMemos()
	if err != nil {
		return nil, nil, err
	}
	sub, mats := restrictLayer(g, cands, edgeMats, keep)
	stats.EdgeFracCells += lead
	stats.EdgeCellsEvaluated += cells
	stats.EdgeMatTime += time.Since(start)
	return sub, mats, nil
}

// allTrue returns n true flags.
func allTrue(n int) []bool {
	v := make([]bool, n)
	for i := range v {
		v[i] = true
	}
	return v
}

// buildEdgeMats computes the grouped cost matrix of each edge (mats[i] for
// edges[i]) over the node entries ents (one per graph node) in two pool
// passes on up to w workers: prepare every edge on the search's registry ot,
// then fill every row and column of one fracGroup per task through the
// fill the layer search grows its rectangles with (growGroups). Matrices
// that share a fraction structure — a layer's repeated linear-input edges,
// or an edge and its transpose (DESIGN.md §5.23) — get each fraction
// computed once. fracCells counts the leaders' cells, whose fractions were
// computed. The matrices are bit-identical to per-edge Measure fills.
func (o *Optimizer) buildEdgeMats(ctx context.Context, g *graph.Graph, edges []*graph.Edge, ents []*nodeEntry, ot *cost.OverlapTables, w int) (mats []*edgeMat, fracCells int64, err error) {
	builds, err := o.prepareEdges(ctx, g, edges, ents, ot, w)
	if err != nil {
		return nil, 0, err
	}
	groups := fracGroups(builds)
	needRows, needCols := make([][]bool, len(groups)), make([][]bool, len(groups))
	for i, gr := range groups {
		needRows[i], needCols[i] = allTrue(gr.lead.m.nr), allTrue(gr.lead.m.nc)
	}
	if fracCells, _, err = growGroups(ctx, o.Cost, groups, needRows, needCols, w); err != nil {
		return nil, 0, err
	}
	mats = make([]*edgeMat, len(builds))
	for i, b := range builds {
		mats[i] = b.m
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
