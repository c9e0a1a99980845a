// Grouped edge-cost matrices: two candidates whose interfaces agree on the
// axes an edge actually moves produce identical inter-operator costs, so the
// (|P1| × |P2|) matrix of interC values collapses to a much smaller
// (uniqueRows × uniqueCols) core plus row/column group maps. The Bellman
// min-plus step then runs over groups instead of raw candidates (paper
// §5.3). A search prepares every matrix but fills only the cells its pruned
// DP reads (DESIGN.md §5.40); a matrix's cells are filled by its fraction
// group, a rectangle of leader rows × leader columns at a time, and live in
// the group's store, which holds the filled rectangle and nothing else
// (DESIGN.md §5.45).
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
)

// edgeMat is a grouped inter-operator cost matrix with every cell, the form
// the bounds, the DP and the oracle read. The cell core is stored as one
// flat row-major slice (group row r at vals[r*nc:(r+1)*nc]) so the DP
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

// prepMat is a prepared edge matrix: its shape and group maps, as edgeMat's,
// with no cells of its own. Its cells live in the store of its fraction
// group, and restrict copies them out into an edgeMat.
type prepMat struct {
	rows, cols []int32
	nr, nc     int
	gr         *fracGroup // the group whose store holds the cells
	k          int        // the matrix's index in gr.members
}

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
	m    *prepMat
	calc *cost.EdgeCalc
	key  string
}

// prepareEdge groups edge e's candidates by interface class, shapes its
// matrix and builds the edge's cost.EdgeCalc — per-axis overlap tables that
// make each cell a handful of table-row products instead of a full device
// sweep, with bit-identical results — on ot, the search's registry, which
// the edges of one search share. Both the grouping and the calc read the
// endpoint spaces' interned patterns. No cell is allocated.
func (o *Optimizer) prepareEdge(g *graph.Graph, e *graph.Edge, src, dst *nodeEntry, ot *cost.OverlapTables) *edgeBuild {
	plan := o.Cost.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(src.outPats, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dst.inPats, plan.DstRelevantAxes())
	calc := plan.NewCalc(ot, src.outPats, rowReps, dst.inPats, colReps)
	return &edgeBuild{calc: calc, key: calc.FracKey(false),
		m: &prepMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps)}}
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
// is the leader itself), and the store of their filled cells.
type fracGroup struct {
	lead    *edgeBuild
	members []cost.FracMember
	edgeStore
}

// edgeStore holds a group's filled rectangle, every done leader row × every
// done leader column, in every member, and no other cell. rowSlot[r] and
// colSlot[c] are leader row r's and column c's slots, −1 while not done.
// stored[s] is row slot s: member k's cells at
// stored[s][k*width:(k+1)*width], its cell at leader column c at offset
// colSlot[c] — a transposed member's too, in the leader's orientation.
type edgeStore struct {
	rowSlot, colSlot []int32
	width            int
	stored           [][]float64
}

// fracGroups forms the fill tasks in build order, each with an empty store.
// A build whose direct key matches a leader's joins that group as a direct
// member; one whose direct key matches a leader's transposed key joins it as
// a transposed member; any other build leads a new group. A build is never
// its own member, so a self-transposed edge is filled on its own.
func fracGroups(builds []*edgeBuild) []*fracGroup {
	var groups []*fracGroup
	direct := make(map[string]*fracGroup)
	transposed := make(map[string]*fracGroup)
	join := func(gr *fracGroup, b *edgeBuild, t bool) {
		b.m.gr, b.m.k = gr, len(gr.members)
		gr.members = append(gr.members, cost.FracMember{Calc: b.calc, Transposed: t})
	}
	for _, b := range builds {
		if gr := direct[b.key]; gr != nil {
			join(gr, b, false)
			continue
		}
		if gr := transposed[b.key]; gr != nil {
			join(gr, b, true)
			continue
		}
		gr := &fracGroup{lead: b, edgeStore: edgeStore{rowSlot: noSlots(b.m.nr), colSlot: noSlots(b.m.nc)}}
		join(gr, b, false)
		direct[b.key] = gr
		transposed[b.calc.FracKey(true)] = gr
		groups = append(groups, gr)
	}
	return groups
}

// noSlots returns n slots of −1.
func noSlots(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// growth is one growth of a group's filled rectangle, staged: the grown
// store, whose new rows the row fills write, becomes the group's only once
// every fill of the call has completed (growGroups).
type growth struct {
	edgeStore
	fills []rowFill
}

// rowFill is one FillRow call: a leader row, the leader columns to fill in
// it and their slots.
type rowFill struct {
	r        int
	cols, at []int32
}

// grow stages the growth of the group's filled rectangle R×C to
// (R∪R′)×(C∪C′), R′ and C′ the leader rows and columns marked in needRows
// and needCols, or returns nil when R′ ⊆ R and C′ ⊆ C. New rows and columns
// take the next slots in ascending order. Its fills are every row of R′∖R
// over C∪C′, then every row of R over C′∖C, in ascending row order within
// each part: they fill no cell twice and no cell outside the grown
// rectangle. A new column widens every stored row, so the second part
// re-lays out every row of R at the grown width.
func (gr *fracGroup) grow(needRows, needCols []bool) *growth {
	var newRows, newCols []int32
	for r, s := range gr.rowSlot {
		if s < 0 && needRows[r] {
			newRows = append(newRows, int32(r))
		}
	}
	for c, s := range gr.colSlot {
		if s < 0 && needCols[c] {
			newCols = append(newCols, int32(c))
		}
	}
	if len(newRows) == 0 && len(newCols) == 0 {
		return nil
	}
	gw := &growth{edgeStore: edgeStore{rowSlot: slices.Clone(gr.rowSlot), colSlot: slices.Clone(gr.colSlot),
		width: gr.width + len(newCols), stored: make([][]float64, len(gr.stored)+len(newRows))}}
	copy(gw.stored, gr.stored)
	for i, r := range newRows {
		gw.rowSlot[r] = int32(len(gr.stored) + i)
	}
	for i, c := range newCols {
		gw.colSlot[c] = int32(gr.width + i)
	}
	var allCols []int32
	for c, s := range gw.colSlot {
		if s >= 0 {
			allCols = append(allCols, int32(c))
		}
	}
	if len(allCols) > 0 {
		at := slotsOf(gw.colSlot, allCols)
		for _, r := range newRows {
			gw.fills = append(gw.fills, rowFill{int(r), allCols, at})
		}
	}
	if len(newCols) > 0 {
		at := slotsOf(gw.colSlot, newCols)
		for r, s := range gr.rowSlot {
			if s >= 0 {
				gw.fills = append(gw.fills, rowFill{r, newCols, at})
			}
		}
	}
	return gw
}

// slotsOf returns slot[i] for every i in ids.
func slotsOf(slot, ids []int32) []int32 {
	at := make([]int32, len(ids))
	for j, i := range ids {
		at[j] = slot[i]
	}
	return at
}

// fill runs gw's row fills, banded on up to w workers, with one BlockEval
// per band: each leader row's fractions are computed once at its columns —
// memo probe or compute() per cell — and written into every member. Each
// band allocates the stored rows it writes as one block, and a row of R
// re-laid out at the grown width first takes its stored cells. Each band
// holds one of the search's fraction memos, keyed by the registry's ids,
// and hands it back when done, so a fraction any earlier band of the same
// fill computed, for any edge or direction, is a probe here.
func (gr *fracGroup) fill(m *cost.Model, gw *growth, w int) {
	n := len(gr.members) * gw.width
	parallelChunks(w, len(gw.fills), func(lo, hi int) {
		be := gr.lead.calc.Block()
		block := make([]float64, (hi-lo)*n)
		for i, f := range gw.fills[lo:hi] {
			row, s := block[i*n:][:n:n], gw.rowSlot[f.r]
			if int(s) < len(gr.stored) {
				old := gr.stored[s]
				for k := range gr.members {
					copy(row[k*gw.width:], old[k*gr.width:(k+1)*gr.width])
				}
			}
			be.FillRow(m, f.r, f.cols, f.at, gr.members, row, gw.width)
			gw.stored[s] = row
		}
		be.Release()
	})
}

// growGroups grows every group's filled rectangle by the leader rows and
// columns needRows[i] and needCols[i] mark for groups[i], one pool task per
// group with fills on up to w workers, and returns the leader cells filled
// (whose fractions were computed) and the member cells filled, leaders
// included. Only once every fill has completed do the rectangles grow: a
// cancelled call returns ctx.Err() and leaves every store as it was.
func growGroups(ctx context.Context, m *cost.Model, groups []*fracGroup, needRows, needCols [][]bool, w int) (leadCells, cells int64, err error) {
	grows := make([]*growth, len(groups))
	var todo []int
	for i, gr := range groups {
		gw := gr.grow(needRows[i], needCols[i])
		if gw == nil {
			continue
		}
		grows[i] = gw
		n := int64(0)
		for _, f := range gw.fills {
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
		groups[i].fill(m, grows[i], inner)
	}); err != nil {
		return 0, 0, err
	}
	for i, gw := range grows {
		if gw != nil {
			groups[i].edgeStore = gw.edgeStore
		}
	}
	return leadCells, cells, nil
}

// restrict returns m over the source candidates rowKeep and destination
// candidates colKeep (ascending indices) as a flat matrix, its core
// compacted to the groups that keep a member, which spares the DP's
// min-plus products the dead groups. It copies the cells out of the store,
// so every kept cell must be filled.
func (m *prepMat) restrict(rowKeep, colKeep []int32) *edgeMat {
	rows, rowOld := liveGroups(m.rows, m.nr, rowKeep)
	cols, colOld := liveGroups(m.cols, m.nc, colKeep)
	out := &edgeMat{rows: rows, cols: cols, nr: len(rowOld), nc: len(colOld),
		vals: make([]float64, len(rowOld)*len(colOld))}
	m.gr.read(m.k, rowOld, colOld, out.vals)
	return out
}

// flat returns m over every candidate, every cell of which must be filled,
// as a flat matrix.
func (m *prepMat) flat() *edgeMat {
	return m.restrict(identityIDs(len(m.rows)), identityIDs(len(m.cols)))
}

// read copies member k's cells (rows[i], cols[j]), group ids in the
// member's own orientation, to out[i*len(cols)+j]. It panics on a cell
// outside the filled rectangle.
func (gr *fracGroup) read(k int, rows, cols []int32, out []float64) {
	if gr.members[k].Transposed {
		// A transposed member's rows are the leader's columns and its
		// columns the leader's rows.
		at := gr.offsets(k, rows)
		for j, c := range cols {
			src := gr.stored[gr.rowSlot[c]]
			for i, a := range at {
				out[i*len(cols)+j] = src[a]
			}
		}
		return
	}
	at := gr.offsets(k, cols)
	for i, r := range rows {
		src, dst := gr.stored[gr.rowSlot[r]], out[i*len(cols):][:len(cols)]
		for j, a := range at {
			dst[j] = src[a]
		}
	}
}

// offsets returns where member k's cells at the leader columns cols sit in
// a stored row. It panics on a column outside the filled rectangle.
func (gr *fracGroup) offsets(k int, cols []int32) []int32 {
	at := slotsOf(gr.colSlot, cols)
	for j, s := range at {
		if s < 0 {
			panic(fmt.Sprintf("core: edge cell read at leader column %d, outside the filled rectangle", cols[j]))
		}
		at[j] += int32(k * gr.width)
	}
	return at
}

// fillRestrict fills every cell of the matrices that the inputs restricted
// to the candidates keep[v] of every node v read, and returns that
// restriction (restrictLayer) of cands and edgeMats, the inputs at one α.
// Under the entry's mutex it grows each fraction group's filled rectangle
// by the leader rows and columns the kept candidates' groups occupy, on
// stats.Workers workers, drops the registry's fraction memos, so the cached
// entry pins none, and restricts, copying the kept cells out of the stores.
// The filled cells are added to stats.EdgeFracCells (leaders) and
// stats.EdgeCellsEvaluated (every member), the time to stats.EdgeMatTime.
func (in *layerInputs) fillRestrict(ctx context.Context, m *cost.Model, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*prepMat, keep [][]int32, stats *SearchStats) ([]*nodeCands, map[*graph.Edge]*edgeMat, error) {
	start := time.Now()
	// A direct member's rows and columns are its leader's; a transposed
	// member's rows are the leader's columns and its columns the leader's
	// rows.
	needRows, needCols := make([][]bool, len(in.groups)), make([][]bool, len(in.groups))
	index := make(map[*fracGroup]int, len(in.groups))
	for i, gr := range in.groups {
		needRows[i], needCols[i] = make([]bool, gr.lead.m.nr), make([]bool, gr.lead.m.nc)
		index[gr] = i
	}
	for i, e := range g.Edges {
		mt := in.mats[in.matOf[i]]
		rows, cols := needRows[index[mt.gr]], needCols[index[mt.gr]]
		if mt.gr.members[mt.k].Transposed {
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
// computed. The matrices are copied out of the groups' stores (flat), each
// store dropped once its members are out, and are bit-identical to per-edge
// Measure fills.
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
	// Copy out one group at a time and drop its store, so the stores and
	// the copies together peak at the copies plus one store.
	byGroup := make(map[*fracGroup][]int, len(groups))
	for i, b := range builds {
		byGroup[b.m.gr] = append(byGroup[b.m.gr], i)
	}
	mats = make([]*edgeMat, len(builds))
	for _, gr := range groups {
		for _, i := range byGroup[gr] {
			mats[i] = builds[i].m.flat()
		}
		gr.edgeStore = edgeStore{}
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
