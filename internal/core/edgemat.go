// Grouped edge-cost matrices: two candidates whose interfaces agree on the
// axes an edge actually moves produce identical inter-operator costs, so the
// (|P1| × |P2|) matrix of interC values collapses to a much smaller
// (uniqueRows × uniqueCols) core plus row/column group maps. The Bellman
// min-plus step then runs over groups instead of raw candidates, which is
// what keeps 32-device searches in the seconds range (paper §5.3).
package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"

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

// ifaceGroups partitions candidates by their interface signature restricted
// to the relevant axes, returning per-candidate group ids, group count and
// one representative candidate per group.
func ifaceGroups(ifaces []*cost.Iface, axes []int) (ids []int32, reps []int32) {
	var h maphash.Hash
	seed := maphash.MakeSeed()
	byKey := make(map[uint64]int32)
	ids = make([]int32, len(ifaces))
	var buf [8]byte
	for i, ifc := range ifaces {
		h.SetSeed(seed)
		devs := len(ifc.Fwd) / ifc.NumAxes
		for _, ax := range axes {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ifc.Width[ax]))
			h.Write(buf[:])
			for dev := 0; dev < devs; dev++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ifc.Fwd[dev*ifc.NumAxes+ax]))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ifc.Bwd[dev*ifc.NumAxes+ax]))
				h.Write(buf[:])
			}
		}
		key := h.Sum64()
		id, ok := byKey[key]
		if !ok {
			id = int32(len(reps))
			byKey[key] = id
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

// buildEdgeMat computes the grouped cost matrix for edge e. The cell loop
// normally runs through a cost.EdgeCalc — per-axis overlap tables make each
// cell a handful of table-row products instead of a full device sweep, with
// bit-identical results — and falls back to direct EdgePlan.Measure calls in
// reference mode (Options.DisableCache) or if the tables would be too large.
// The calc takes its overlap vectors from ot, the search's registry, which
// the edges of one search share. Rows are filled on up to w workers.
func (o *Optimizer) buildEdgeMat(g *graph.Graph, e *graph.Edge, src, dst *nodeCands, ot *cost.OverlapTables, w int) *edgeMat {
	plan := o.Cost.PlanEdge(g, e)
	rows, rowReps := ifaceGroups(src.out, plan.SrcRelevantAxes())
	cols, colReps := ifaceGroups(dst.in, plan.DstRelevantAxes())
	m := &edgeMat{rows: rows, cols: cols, nr: len(rowReps), nc: len(colReps),
		vals: make([]float64, len(rowReps)*len(colReps))}

	var calc *cost.EdgeCalc
	if !o.Opts.DisableCache {
		srcIfs := make([]*cost.Iface, len(rowReps))
		for r, ri := range rowReps {
			srcIfs[r] = src.out[ri]
		}
		dstIfs := make([]*cost.Iface, len(colReps))
		for c, ci := range colReps {
			dstIfs[c] = dst.in[ci]
		}
		calc = plan.NewCalc(ot, srcIfs, dstIfs)
	}

	if calc != nil {
		// One BlockEval per worker band: rows stream through a specialized
		// fill loop (hoisted slices, fused volume math) straight into the
		// flat storage, and the band-private cell/combo memos amortize
		// across all its rows — with one worker (every build of a
		// multi-edge search), across the whole matrix. Released memos go
		// back to the search's registry for its later matrices.
		parallelChunks(w, len(rowReps), func(lo, hi int) {
			be := calc.Block()
			for r := lo; r < hi; r++ {
				be.MeasureRowInto(o.Cost, r, m.row(r))
			}
			be.Release()
		})
		return m
	}
	parallelRows(w, len(rowReps), func(r int) {
		row := m.row(r)
		srcIface := src.out[rowReps[r]]
		for c, cj := range colReps {
			row[c] = o.Cost.RedistributeDetail(plan.Measure(srcIface, dst.in[cj]))
		}
	})
	return m
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
