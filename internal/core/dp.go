// Segmented dynamic programming (paper §5): Bellman iterations within
// segments (Eqs. 11–12), segment merging (Eqs. 13–14) and logarithmic layer
// stacking. Strategy reconstruction walks stored back-pointers.
package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
)

// addScanned accumulates sorted-scan min-plus work into the stats, tolerating
// the nil stats of direct test invocations. Called from worker bands, hence
// atomic; counts are value-determined, so totals are worker-independent.
func addScanned(st *SearchStats, n int64) {
	if st != nil && n != 0 {
		atomic.AddInt64(&st.EntriesScanned, n)
	}
}

// Optimizer searches the partition space of a computation graph.
type Optimizer struct {
	Cost *cost.Model
	Opts Options
	// Cache persists node evaluations and edge matrices ACROSS Plan
	// calls (see crosscache.go). NewOptimizer attaches the process-wide
	// DefaultSearchCache; set a private NewSearchCache (or nil) to isolate.
	Cache *SearchCache
}

// NewOptimizer returns an optimizer over the given cost model with defaults.
func NewOptimizer(m *cost.Model) *Optimizer {
	return &Optimizer{Cost: m, Opts: DefaultOptions(), Cache: DefaultSearchCache}
}

// nodeCands caches per-candidate evaluations for one graph node. The DP node
// cost lives in its own flat slice (total) so the DP folds walk contiguous
// memory; the Intra breakdowns stay around only for Strategy reporting and
// the cross-call cache.
type nodeCands struct {
	seqs  []partition.Seq
	intra []cost.Intra
	total []float64 // Intra.Total(alpha), the DP node cost
	out   []*cost.Iface
	in    []*cost.Iface
	// orig maps the beam-pruned candidate index back to the node's original
	// enumeration index; nil means identity. Kept so pruned searches still
	// report original candidate identities.
	orig []int32
}

// origIdx resolves a (filtered) candidate index to its original enumeration
// index.
func (nc *nodeCands) origIdx(i int32) int32 {
	if nc.orig == nil {
		return i
	}
	return nc.orig[i]
}

// Strategy is an optimized partition assignment for one representative layer
// plus the stacked total cost.
type Strategy struct {
	// Seqs has one partition sequence per node of the layer graph.
	Seqs []partition.Seq
	// Intra is the cost breakdown per node under Seqs.
	Intra []cost.Intra
	// LayerCost is the optimal DP cost of a single layer (min over
	// boundary states).
	LayerCost float64
	// TotalCost is the optimal DP cost of all stacked layers.
	TotalCost float64
	// Layers is the stacked layer count.
	Layers int
	// SpaceSizes records |P| per node for reporting.
	SpaceSizes []int
	// Stats instruments the search that produced this strategy.
	Stats SearchStats
}

// evalNode enumerates and evaluates the candidate space of node i on up to
// w workers.
func (o *Optimizer) evalNode(op *graph.Op, w int) *nodeCands {
	seqs := Candidates(op, o.Cost.Cluster.Bits(), o.Opts)
	nc := &nodeCands{
		seqs:  seqs,
		intra: make([]cost.Intra, len(seqs)),
		total: make([]float64, len(seqs)),
		out:   make([]*cost.Iface, len(seqs)),
		in:    make([]*cost.Iface, len(seqs)),
	}
	parallelRows(w, len(seqs), func(i int) {
		nc.intra[i] = o.Cost.IntraCost(op, seqs[i])
		nc.total[i] = nc.intra[i].Total(o.Cost.Alpha)
		nc.out[i] = o.Cost.OutputIface(op, seqs[i])
		nc.in[i] = o.Cost.InputIface(op, seqs[i])
	})
	return nc
}

// table is an optimal-substructure matrix C_{a,b}(p_a, p_b), stored in
// head-class-factored form: every dependence on p_a flows through the head
// node's own cost plus its row in the edge matrices reaching back to a
// (the adjacent edge a→a+1, the extended edges a→j, and any merge cross
// edge). Candidates of p_a that share all those rows are provably
// interchangeable, so the DP keeps ONE row per equivalence class:
//
//	C(ia, ib) = headBase[ia] + cost[rowCls[ia]][ib]
//
// Back-pointers are per class too — a witness for the class representative
// is a witness for every member.
type table struct {
	a, b int

	// rowCls maps each p_a candidate to its interface class; nCls counts
	// classes; headBase is the head node's own cost (shared with
	// cands[a].total).
	rowCls   []int32
	nCls     int
	headBase []float64

	// cost[cls][ib] excludes headBase.
	cost [][]float64

	// Chain segments: chainArgs[j-a-2][cls][ij] is the best index of
	// p_{j-1} in the Bellman step that introduced node j (a+2 ≤ j ≤ b).
	// The first step a→a+1 needs no pointer: its predecessor is p_a.
	chainArgs [][][]int32

	// Merge nodes: argmid[cls][ib] is the best middle candidate index.
	// Rows may be shared between classes (a cross edge refines classes
	// without moving the argmin).
	left, right *table
	argmid      [][]int32
}

// segmentDP runs the Bellman iteration (Eqs. 11–12) over nodes a..b.
// Extended edges inside the segment must originate at a (checked by
// graph.CheckSegmentAssumptions).
//
// The p_a axis is collapsed to interface classes up front: the recursion
// depends on p_a only through the row groups of the adjacent edge a→a+1 and
// of every extended edge a→j, so the joint refinement of those row-group
// vectors is computed once and each Bellman step runs per class instead of
// per candidate.
// Cancellation is checked once per Bellman step — coarse enough that the
// uncancelled fast path is untouched, fine enough that a cancelled search
// stops within one step. Class loops run on up to w workers.
func (o *Optimizer) segmentDP(ctx context.Context, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, a, b int, st *SearchStats, w int) (*table, error) {
	sumEdges := func(j int, from int) *edgeMat {
		var ms []*edgeMat
		for _, e := range g.InEdges(j) {
			if e.Src == from {
				ms = append(ms, edgeMats[e])
			}
		}
		if len(ms) == 0 {
			return nil
		}
		return sumEdgeMats(ms)
	}

	adj := sumEdges(a+1, a)
	eExts := make([]*edgeMat, 0, b-a-1) // eExts[j-a-2] for j = a+2 .. b
	idVecs := make([][]int32, 0, b-a)
	if adj != nil {
		idVecs = append(idVecs, adj.rows)
	}
	for j := a + 2; j <= b; j++ {
		e := sumEdges(j, a)
		eExts = append(eExts, e)
		if e != nil {
			idVecs = append(idVecs, e.rows)
		}
	}
	na := len(cands[a].seqs)
	rowCls, reps := refineClasses(na, idVecs...)
	t := &table{a: a, b: b, rowCls: rowCls, nCls: len(reps), headBase: cands[a].total}

	// C_{a,a+1}: no min needed — the only predecessor state is p_a itself.
	nb := len(cands[a+1].seqs)
	cur := make([][]float64, t.nCls)
	if adj == nil {
		// No edge: every class shares one (read-only) row.
		row := make([]float64, nb)
		copy(row, cands[a+1].total)
		for r := range cur {
			cur[r] = row
		}
	} else {
		parallelChunks(w, t.nCls, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				arow := adj.row(int(adj.rows[reps[r]]))
				row := make([]float64, nb)
				for ib := 0; ib < nb; ib++ {
					row[ib] = cands[a+1].total[ib] + arow[adj.cols[ib]]
				}
				cur[r] = row
			}
		})
	}

	// Bellman steps j = a+2 .. b. The min over p_{j-1} runs over edge-row
	// GROUPS: candidates with identical edge interfaces share matrix rows,
	// so we first fold C over each group, then scan groups per column with
	// bucketed early exit.
	for j := a + 2; j <= b; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		totals := cands[j].total
		nj := len(totals)
		nprev := len(cands[j-1].seqs)
		em := sumEdges(j, j-1)
		eExt := eExts[j-a-2]

		// Transposed group-value matrix, flat column-major (column c at
		// valsT[c*uR:(c+1)*uR]), each column sorted once and shared
		// (read-only) across classes and worker bands. foldM reduces a
		// class's DP row over the edge's row groups.
		var scols *sortedCols
		var valsT, colMin []float64
		uR, uC := 0, 0
		// Probe results reusable for class 0 of this step (nil when not).
		var probeBestVal []float64
		var probeBestU, probeArgm []int32
		foldM := func(prevRow, m []float64, argm []int32) (mMin float64) {
			for u := range m {
				m[u] = math.Inf(1)
				argm[u] = -1
			}
			mMin = math.Inf(1)
			for k := 0; k < nprev; k++ {
				u := em.rows[k]
				if prevRow[k] < m[u] {
					m[u] = prevRow[k]
					argm[u] = int32(k)
					if prevRow[k] < mMin {
						mMin = prevRow[k]
					}
				}
			}
			return mMin
		}
		scanRows := false
		if em != nil {
			uR = em.numRowGroups()
			uC = em.numColGroups()
			valsT = make([]float64, uC*uR)
			colMin = make([]float64, uC)
			for c := range colMin {
				colMin[c] = math.Inf(1)
			}
			// One linear pass over the flat row-major core fills the
			// column-major transpose and the per-column minima the row-scan
			// kernel exits on.
			for r := 0; r < uR; r++ {
				erow := em.row(r)
				for c := 0; c < uC; c++ {
					v := erow[c]
					valsT[c*uR+r] = v
					if v < colMin[c] {
						colMin[c] = v
					}
				}
			}
			// Probe class 0 with the row kernel; only when its scans are
			// long (≥ uR/8 per column) is the per-column sort worth
			// building to compare against. The counts depend only on
			// values, so the choice (and with it the scan-order
			// tie-breaking of witnesses) is deterministic.
			m := make([]float64, uR)
			argm := make([]int32, uR)
			morder := make([]int32, uR)
			mval := make([]float64, uR)
			msuf := make([]float64, uR)
			bestVal := make([]float64, uC)
			bestU := make([]int32, uC)
			var ss sortScratch
			mMin := foldM(cur[0], m, argm)
			sortAsc(m, morder, mval, msuf, &ss)
			nRows := scanMinPlusRows(m, morder, mval, msuf, valsT, colMin, bestVal, bestU)
			addScanned(st, int64(nRows))
			scanRows = true
			colProbe := 8*nRows >= uR*uC
			if colProbe {
				scols = sortCols(valsT, uR, uC)
				nCols := scanMinPlus(m, mMin, valsT, scols, bestVal, bestU)
				addScanned(st, int64(nCols))
				scanRows = nRows <= nCols
			}
			// The probe already holds class 0's exact results — reuse them
			// in the main loop instead of re-scanning, but only when
			// bestVal/bestU were last written by the CHOSEN kernel (the two
			// kernels agree on values but may pick different tie witnesses).
			if !colProbe || !scanRows {
				probeBestVal, probeBestU, probeArgm = bestVal, bestU, argm
			}
		}

		next := make([][]float64, t.nCls)
		args := make([][]int32, t.nCls)
		parallelChunks(w, t.nCls, func(lo, hi int) {
			var scanned int64
			var m, mval, msuf []float64
			var argm, morder, bestU []int32
			var bestVal []float64
			var ss *sortScratch
			if em != nil {
				m = make([]float64, uR)
				argm = make([]int32, uR)
				bestVal = make([]float64, uC)
				bestU = make([]int32, uC)
				if scanRows {
					morder = make([]int32, uR)
					mval = make([]float64, uR)
					msuf = make([]float64, uR)
					ss = &sortScratch{}
				}
			}
			for r := lo; r < hi; r++ {
				row := make([]float64, nj)
				arow := make([]int32, nj)
				prevRow := cur[r]
				var extRow []float64
				if eExt != nil {
					extRow = eExt.row(int(eExt.rows[reps[r]]))
				}

				if r == 0 && probeBestVal != nil {
					// Class 0 was already solved by the kernel probe with the
					// chosen kernel; copying its results drops one full scan
					// per Bellman step (class 0 used to be scanned twice).
					for ij := 0; ij < nj; ij++ {
						cg := em.cols[ij]
						c := probeBestVal[cg] + totals[ij]
						if extRow != nil {
							c += extRow[eExt.cols[ij]]
						}
						row[ij] = c
						arow[ij] = probeArgm[probeBestU[cg]]
					}
					next[r] = row
					args[r] = arow
					continue
				}

				if em == nil {
					// No edge: one global min serves every p_j.
					best := math.Inf(1)
					bestK := int32(-1)
					for k := 0; k < nprev; k++ {
						if prevRow[k] < best {
							best = prevRow[k]
							bestK = int32(k)
						}
					}
					for ij := 0; ij < nj; ij++ {
						c := best + totals[ij]
						if extRow != nil {
							c += extRow[eExt.cols[ij]]
						}
						row[ij] = c
						arow[ij] = bestK
					}
					next[r] = row
					args[r] = arow
					continue
				}

				mMin := foldM(prevRow, m, argm)
				if scanRows {
					sortAsc(m, morder, mval, msuf, ss)
					scanned += int64(scanMinPlusRows(m, morder, mval, msuf, valsT, colMin, bestVal, bestU))
				} else {
					scanned += int64(scanMinPlus(m, mMin, valsT, scols, bestVal, bestU))
				}
				for ij := 0; ij < nj; ij++ {
					cg := em.cols[ij]
					c := bestVal[cg] + totals[ij]
					if extRow != nil {
						c += extRow[eExt.cols[ij]]
					}
					row[ij] = c
					arow[ij] = argm[bestU[cg]]
				}
				next[r] = row
				args[r] = arow
			}
			addScanned(st, scanned)
		})
		cur = next
		t.chainArgs = append(t.chainArgs, args)
	}
	t.cost = cur
	return t, nil
}

// merge combines adjacent tables per Eqs. 13–14:
//
//	out(pa, pb) = min_pm { L(pa,pm) + R(pm,pb) − n_m(pm) } + cross(pa,pb)
//
// where cross sums the edge matrices of extended edges a→b (e.g. e(0,7)).
//
// Both operands are class-factored. Expanding the factored forms,
//
//	out = hbL[pa] + min_pm { Lc[rL][pm] + (hbR[pm] − mid[pm]) + Rc[rm(pm)][pb] }
//
// so the min folds in two exact stages: first over the mid candidates of
// each right class (W[rm] = min over pm in rm of Lc + delta), then over
// right classes per column with bucketed early exit. For in-layer merges
// midTotal IS the right table's headBase, so delta is exactly zero; for
// stacking merges midTotal is the zero vector and delta re-adds the
// boundary anchor's own cost. A cross edge refines the OUTPUT classes but
// never moves the argmin, so refined classes share argmid rows.
// Cancellation is checked once at entry — one merge is a single bounded
// scan pass, so per-merge granularity keeps cancelled stacking loops prompt
// without touching the scan kernels. Class loops run on up to w workers.
func (o *Optimizer) merge(ctx context.Context, left, right *table, midTotal []float64, cross *edgeMat, st *SearchStats, w int) (*table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nm := len(midTotal)
	nR := right.nCls
	nb := len(right.cost[0])
	delta := make([]float64, nm)
	for pm, hb := range right.headBase {
		delta[pm] = hb - midTotal[pm]
	}
	// Transposed right classes, flat column-major (candidate column pb at
	// rightT[pb*nR:(pb+1)*nR]), each column sorted once for the early exit.
	rightT := make([]float64, nb*nR)
	for rm := 0; rm < nR; rm++ {
		rrow := right.cost[rm]
		for pb := 0; pb < nb; pb++ {
			rightT[pb*nR+rm] = rrow[pb]
		}
	}
	scols := sortCols(rightT, nR, nb)

	nL := left.nCls
	base := make([][]float64, nL)
	argPM := make([][]int32, nL)
	parallelChunks(w, nL, func(lo, hi int) {
		var scanned int64
		W := make([]float64, nR)
		argW := make([]int32, nR)
		bestRM := make([]int32, nb)
		for rL := lo; rL < hi; rL++ {
			lrow := left.cost[rL]
			for u := range W {
				W[u] = math.Inf(1)
				argW[u] = -1
			}
			wMin := math.Inf(1)
			for pm := 0; pm < nm; pm++ {
				rm := right.rowCls[pm]
				if v := lrow[pm] + delta[pm]; v < W[rm] {
					W[rm] = v
					argW[rm] = int32(pm)
					if v < wMin {
						wMin = v
					}
				}
			}
			row := make([]float64, nb)
			scanned += int64(scanMinPlus(W, wMin, rightT, scols, row, bestRM))
			arow := make([]int32, nb)
			for pb := range arow {
				arow[pb] = argW[bestRM[pb]]
			}
			base[rL] = row
			argPM[rL] = arow
		}
		addScanned(st, scanned)
	})

	t := &table{a: left.a, b: right.b, left: left, right: right, headBase: left.headBase}
	if cross == nil {
		t.rowCls = left.rowCls
		t.nCls = nL
		t.cost = base
		t.argmid = argPM
		return t, nil
	}
	outCls, reps := refineClasses(len(left.rowCls), left.rowCls, cross.rows)
	t.rowCls = outCls
	t.nCls = len(reps)
	t.cost = make([][]float64, t.nCls)
	t.argmid = make([][]int32, t.nCls)
	parallelChunks(w, t.nCls, func(lo, hi int) {
		for ro := lo; ro < hi; ro++ {
			rep := reps[ro]
			rL := left.rowCls[rep]
			crow := cross.row(int(cross.rows[rep]))
			b := base[rL]
			row := make([]float64, nb)
			for pb := 0; pb < nb; pb++ {
				row[pb] = b[pb] + crow[cross.cols[pb]]
			}
			t.cost[ro] = row
			t.argmid[ro] = argPM[rL] // shared: cross shifts values, not argmins
		}
	})
	return t, nil
}

// searchOnce runs one full search of the layer graph at the currently
// configured options (the Plan entrypoint's non-budget mode): node pass,
// beam pruning, the stacking check, the plan-tier probe (plancache.go), the
// layer-table probe or build (delta.go), stacking, reconstruction, and
// publishing the answer.
// Cancellation is checked at coarse, value-independent points — between pool
// task pulls, per Bellman step, per merge, between stages — so an
// uncancelled search executes bit-identically to an uncancellable one, while
// a cancelled one returns ctx.Err() promptly and publishes nothing partial
// to the shared cross-call cache (the cache stays fully usable).
func (o *Optimizer) searchOnce(ctx context.Context, g *graph.Graph, layers int) (*Strategy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if layers < 1 {
		return nil, fmt.Errorf("core: layers must be ≥ 1, got %d", layers)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := SearchStats{Workers: o.Workers()}

	// Evaluate candidate spaces, memoized by full op signature: nodes with
	// identical structure (repeated linears, mirrored norms/residuals)
	// share one evaluation; unique signatures evaluate across the worker
	// pool.
	tNodes := time.Now()
	in := &sigInterner{}
	slotOf := make([]int, len(g.Nodes)) // node index -> unique slot
	var slotNode []int                  // slot -> representative node index
	if o.Opts.DisableCache {
		for i := range g.Nodes {
			slotOf[i] = i
			slotNode = append(slotNode, i)
		}
	} else {
		bySig := make(map[int32]int)
		for i, op := range g.Nodes {
			id := in.fullID(op)
			s, ok := bySig[id]
			if !ok {
				s = len(slotNode)
				bySig[id] = s
				slotNode = append(slotNode, i)
			}
			slotOf[i] = s
		}
	}
	// Cross-call cache: slots whose (environment, op signature) key was seen
	// by an earlier Plan call reuse the stored α-independent evaluation;
	// only the misses are evaluated (and then published for later calls).
	ccache := o.crossCache()
	var envSig []byte
	if ccache != nil {
		envSig = o.appendEnvSig(nil)
	}
	slotCands := make([]*nodeCands, len(slotNode))
	evalSlots := make([]int, 0, len(slotNode))
	var nodeKeys []string
	if ccache == nil {
		for s := range slotNode {
			evalSlots = append(evalSlots, s)
		}
	} else {
		nodeKeys = make([]string, len(slotNode))
		for s, ni := range slotNode {
			nodeKeys[s] = string(appendNodeCrossKey(envSig, g.Nodes[ni]))
			if e := ccache.getNode(nodeKeys[s]); e != nil {
				slotCands[s] = e.withAlpha(o.Cost.Alpha)
				stats.CrossCallNodeHits++
			} else {
				evalSlots = append(evalSlots, s)
			}
		}
	}
	nodeW := innerWorkers(stats.Workers, len(evalSlots))
	if err := RunTasks(ctx, stats.Workers, len(evalSlots), func(i int) {
		s := evalSlots[i]
		slotCands[s] = o.evalNode(g.Nodes[slotNode[s]], nodeW)
	}); err != nil {
		return nil, err
	}
	if ccache != nil {
		for _, s := range evalSlots {
			nc := slotCands[s]
			ccache.putNode(nodeKeys[s], &nodeEntry{seqs: nc.seqs, intra: nc.intra, out: nc.out, in: nc.in})
		}
	}
	cands := make([]*nodeCands, len(g.Nodes))
	for i, op := range g.Nodes {
		cands[i] = slotCands[slotOf[i]]
		if len(cands[i].seqs) == 0 {
			return nil, fmt.Errorf("core: node %d (%s) has an empty partition space", i, op.Name)
		}
	}
	stats.NodeEvals = len(evalSlots)
	stats.NodeCacheHits = len(g.Nodes) - len(slotNode)
	for _, s := range evalSlots {
		stats.CandidatesEvaluated += len(slotCands[s].seqs)
	}
	stats.NodeEvalTime = time.Since(tNodes)

	if o.Opts.Beam > 0 {
		// pruneBeam REPLACES per-node nodeCands (never mutates them), so
		// signature-shared evaluations stay intact; equal signatures keep
		// equal pruned sets (identical totals give identical cheapestK).
		o.pruneBeam(g, cands)
	}
	// SpaceSizes reports the space the DP is exact over (post-beam); budget
	// mode's uncut() reads these sizes to decide when the beam covers a
	// node's whole space.
	spaceSizes := make([]int, len(g.Nodes))
	for i := range cands {
		spaceSizes[i] = len(cands[i].seqs)
		stats.CandsTotal += spaceSizes[i]
	}
	if len(g.Nodes) < 2 {
		return nil, fmt.Errorf("core: graph needs at least two nodes")
	}
	// Stacking: the layer boundary appears as the zero-cost anchor in the
	// next layer, so no subtraction is needed — but the boundary STATE must
	// be shared, which requires the anchor's candidate space to be
	// INDEX-IDENTICAL to the tail node's. Comparing exact binary sequence
	// keys pairwise makes the check exact rather than length-only (a
	// same-size space with different or reordered sequences would silently
	// stack wrong costs).
	if layers > 1 {
		head, tail := cands[0], cands[len(g.Nodes)-1]
		if len(head.seqs) != len(tail.seqs) {
			return nil, fmt.Errorf("core: layer head and tail spaces differ (%d vs %d); cannot stack",
				len(head.seqs), len(tail.seqs))
		}
		var hk, tk []byte
		for i := range head.seqs {
			hk = head.seqs[i].AppendBinaryKey(hk[:0])
			tk = tail.seqs[i].AppendBinaryKey(tk[:0])
			if !bytes.Equal(hk, tk) {
				return nil, fmt.Errorf("core: layer head and tail spaces disagree at candidate %d (%v vs %v); cannot stack",
					i, head.seqs[i], tail.seqs[i])
			}
		}
	}

	// Plan tier (plancache.go): an identical repeat is served from the
	// stored answer over the candidate lists just rebuilt; no edge matrix,
	// layer table or stacking step runs.
	var planKey string
	if ccache != nil {
		planKey = string(o.appendPlanCrossKey(envSig, g, layers))
		if e := ccache.getPlan(planKey); e != nil && e.fits(spaceSizes) {
			stats.CrossCallPlanHits = 1
			strat := strategyOf(cands, e.idx, e.layerCost, e.totalCost, layers, spaceSizes)
			stats.TotalTime = time.Since(start)
			strat.Stats = stats
			return strat, nil
		}
	}

	// Layer table (delta.go): one cross-call probe per search. A hit skips
	// the edge matrices, the segment DPs and the cross-segment merges; only
	// stacking re-runs. A miss builds the table and publishes it once it is
	// complete, so a cancelled search publishes nothing.
	var tableKey string
	var layerTable *table
	if ccache != nil {
		tableKey = string(o.appendTableCrossKey(envSig, g))
		layerTable = ccache.getTable(tableKey)
	}
	if layerTable != nil {
		stats.CrossCallTableHits = 1
	} else {
		var err error
		layerTable, err = o.buildLayerTable(ctx, g, in, cands, ccache, envSig, &stats)
		if err != nil {
			return nil, err
		}
		if ccache != nil {
			ccache.putTable(tableKey, layerTable)
		}
	}
	layerCost := layerTable.minTotal()

	// Stack layers: binary decomposition with Eq. 14 merging (the head/tail
	// spaces were checked index-identical above).
	tStack := time.Now()
	zeroMid := make([]float64, len(cands[0].seqs)) // anchor costs nothing
	full := layerTable
	remaining := layers - 1
	doubled := layerTable
	for remaining > 0 {
		var err error
		if remaining&1 == 1 {
			full, err = o.merge(ctx, full, doubled, zeroMid, nil, &stats, stats.Workers)
			if err != nil {
				return nil, err
			}
		}
		remaining >>= 1
		if remaining > 0 {
			doubled, err = o.merge(ctx, doubled, doubled, zeroMid, nil, &stats, stats.Workers)
			if err != nil {
				return nil, err
			}
		}
	}
	totalCost := full.minTotal()
	stats.StackTime = time.Since(tStack)

	// Reconstruct the representative (leftmost) layer's assignment.
	ia, ib := full.argMin()
	assign := make([]int32, len(g.Nodes))
	for i := range assign {
		assign[i] = -1
	}
	reconstruct(full, ia, ib, assign)
	for i, ix := range assign {
		if ix < 0 {
			return nil, fmt.Errorf("core: reconstruction left node %d unassigned", i)
		}
	}
	strat := strategyOf(cands, assign, layerCost, totalCost, layers, spaceSizes)
	if ccache != nil {
		ccache.putPlan(planKey, &cachedPlan{idx: assign, layerCost: layerCost, totalCost: totalCost})
	}
	stats.TotalTime = time.Since(start)
	strat.Stats = stats
	return strat, nil
}

// buildLayerTable builds the merged DP table of one layer: the edge cost
// matrices (grouped; cached by exact structural key and built across the
// worker pool), the per-segment DPs, then left-to-right merging with cross
// edges (Eqs. 13–14).
func (o *Optimizer) buildLayerTable(ctx context.Context, g *graph.Graph, in *sigInterner, cands []*nodeCands, ccache *SearchCache, envSig []byte, stats *SearchStats) (*table, error) {
	tEdges := time.Now()
	var uniqEdges []*graph.Edge
	matIdx := make([]int, len(g.Edges))
	if o.Opts.DisableCache {
		uniqEdges = g.Edges
		for i := range g.Edges {
			matIdx[i] = i
		}
	} else {
		byKey := make(map[edgeMatKey]int)
		for i, e := range g.Edges {
			k := edgeKeyOf(in, g, e, o.Opts.Beam > 0)
			s, ok := byKey[k]
			if !ok {
				s = len(uniqEdges)
				byKey[k] = s
				uniqEdges = append(uniqEdges, e)
			}
			matIdx[i] = s
		}
	}
	mats := make([]*edgeMat, len(uniqEdges))
	buildSlots := make([]int, 0, len(uniqEdges))
	var edgeKeys []string
	if ccache == nil {
		for s := range uniqEdges {
			buildSlots = append(buildSlots, s)
		}
	} else {
		// The cross-call key folds exactly what the within-call key does
		// (plus the environment), so each slot has one cross key — the one
		// the estimator (estimate.go) probes.
		edgeKeys = make([]string, len(uniqEdges))
		for s, e := range uniqEdges {
			edgeKeys[s] = string(o.appendEdgeCrossKey(envSig, g, e))
			if m := ccache.getEdge(edgeKeys[s]); m != nil {
				mats[s] = m
				stats.CrossCallEdgeHits++
			} else {
				buildSlots = append(buildSlots, s)
			}
		}
	}
	edgeW := innerWorkers(stats.Workers, len(buildSlots))
	ot := o.newOverlapTables()
	if err := RunTasks(ctx, stats.Workers, len(buildSlots), func(i int) {
		e := uniqEdges[buildSlots[i]]
		mats[buildSlots[i]] = o.buildEdgeMat(g, e, cands[e.Src], cands[e.Dst], ot, edgeW)
	}); err != nil {
		return nil, err
	}
	if ccache != nil {
		for _, s := range buildSlots {
			ccache.putEdge(edgeKeys[s], mats[s])
		}
	}
	edgeMats := make(map[*graph.Edge]*edgeMat, len(g.Edges))
	for i, e := range g.Edges {
		edgeMats[e] = mats[matIdx[i]]
	}
	stats.EdgeMatsBuilt = len(buildSlots)
	stats.EdgeCacheHits = len(g.Edges) - len(uniqEdges)
	for _, s := range buildSlots {
		m := mats[s]
		stats.EdgeCellsEvaluated += int64(m.nr) * int64(m.nc)
	}
	stats.EdgeMatTime = time.Since(tEdges)

	tDP := time.Now()
	cuts := g.SegmentCuts()
	var acc *table
	for s := 0; s+1 < len(cuts); s++ {
		seg, err := o.segmentTable(ctx, g, cands, edgeMats, cuts[s], cuts[s+1], stats, stats.Workers)
		if err != nil {
			return nil, err
		}
		stats.SegTablesBuilt++
		stats.DPRowClasses += int64(seg.nCls)
		if acc == nil {
			acc = seg
			continue
		}
		cross := o.crossEdges(g, edgeMats, acc.a, seg.b)
		acc, err = o.merge(ctx, acc, seg, cands[seg.a].total, cross, stats, stats.Workers)
		if err != nil {
			return nil, err
		}
	}
	stats.DPTime = time.Since(tDP)
	return acc, nil
}

// strategyOf assembles the answer from one post-beam candidate index per
// node — the reconstruction of a search, or a plan-tier entry.
func strategyOf(cands []*nodeCands, assign []int32, layerCost, totalCost float64, layers int, spaceSizes []int) *Strategy {
	strat := &Strategy{
		Seqs:       make([]partition.Seq, len(cands)),
		Intra:      make([]cost.Intra, len(cands)),
		LayerCost:  layerCost,
		TotalCost:  totalCost,
		Layers:     layers,
		SpaceSizes: spaceSizes,
	}
	for i, ix := range assign {
		strat.Seqs[i] = cands[i].seqs[ix]
		strat.Intra[i] = cands[i].intra[ix]
	}
	return strat
}

// pruneBeam keeps each node's Beam cheapest candidates by intra cost.
// Zero-cost nodes (anchors) adopt the TAIL node's kept set so the layer
// head/tail candidate spaces stay index-identical for stacking.
func (o *Optimizer) pruneBeam(g *graph.Graph, cands []*nodeCands) {
	beam := o.Opts.Beam
	tail := len(g.Nodes) - 1
	var tailKept []int32
	// Prune the tail first so anchors can mirror it.
	order := make([]int, 0, len(g.Nodes))
	order = append(order, tail)
	for i := 0; i < tail; i++ {
		order = append(order, i)
	}
	for _, i := range order {
		nc := cands[i]
		if len(nc.seqs) <= beam {
			if i == tail {
				tailKept = identity(len(nc.seqs))
			}
			continue
		}
		var keep []int32
		if i != tail && g.Nodes[i].FlopFactor == 0 && tailKept != nil &&
			sameSpaceShape(g.Nodes[i], g.Nodes[tail]) {
			keep = tailKept // anchors mirror the tail for stacking
		}
		if keep == nil {
			keep = cheapestK(nc.total, beam)
		}
		cands[i] = selectCands(nc, keep)
		if i == tail {
			tailKept = keep
		}
	}
}

func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// cheapestK returns the indices of the k smallest totals, in ascending
// index order (deterministic).
func cheapestK(total []float64, k int) []int32 {
	idx := identity(len(total))
	sort.SliceStable(idx, func(a, b int) bool { return total[idx[a]] < total[idx[b]] })
	idx = idx[:k]
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

func selectCands(nc *nodeCands, keep []int32) *nodeCands {
	out := &nodeCands{}
	for _, i := range keep {
		out.seqs = append(out.seqs, nc.seqs[i])
		out.intra = append(out.intra, nc.intra[i])
		out.total = append(out.total, nc.total[i])
		out.out = append(out.out, nc.out[i])
		out.in = append(out.in, nc.in[i])
		out.orig = append(out.orig, nc.origIdx(i))
	}
	return out
}

// sameSpaceShape reports whether two ops enumerate identical candidate
// spaces (same axes and prime roles).
func sameSpaceShape(a, b *graph.Op) bool {
	if len(a.Axes) != len(b.Axes) || a.PrimeM != b.PrimeM || a.PrimeN != b.PrimeN || a.PrimeK != b.PrimeK {
		return false
	}
	for i := range a.Axes {
		if a.Axes[i].Size != b.Axes[i].Size || a.Axes[i].Splittable != b.Axes[i].Splittable {
			return false
		}
	}
	return true
}

// crossEdges sums edge matrices of extended edges connecting exactly (a, b).
func (o *Optimizer) crossEdges(g *graph.Graph, edgeMats map[*graph.Edge]*edgeMat, a, b int) *edgeMat {
	var ms []*edgeMat
	for _, e := range g.Edges {
		if e.Src == a && e.Dst == b && e.IsExtended() {
			ms = append(ms, edgeMats[e])
		}
	}
	if len(ms) == 0 {
		return nil
	}
	return sumEdgeMats(ms)
}

// reconstruct walks back-pointers, recording candidate indices for the nodes
// of the LEFTMOST layer instance into assign (indexed by node id; later
// layer instances only contribute their boundary choices). All back-pointer
// rows are indexed by the head candidate's CLASS — valid for every member.
func reconstruct(t *table, ia, ib int32, assign []int32) {
	if t.argmid != nil {
		im := t.argmid[t.rowCls[ia]][ib]
		reconstruct(t.left, ia, im, assign)
		// Right subtree: only needed while it still covers leftmost-layer
		// nodes (merge of segments within the layer). Stacked-layer merges
		// reuse the same underlying node range; recursing would overwrite
		// the leftmost layer's choices, so only descend when unassigned.
		if assign[t.right.a] == -1 || !rangeAssigned(assign, t.right.a, t.right.b) {
			reconstruct(t.right, im, ib, assign)
		}
		return
	}
	// Chain segment: walk j = b .. a+2, then the implicit first step.
	cls := t.rowCls[ia]
	cur := ib
	for j := t.b; j > t.a+1; j-- {
		if assign[j] == -1 {
			assign[j] = cur
		}
		cur = t.chainArgs[j-t.a-2][cls][cur]
	}
	if assign[t.a+1] == -1 {
		assign[t.a+1] = cur
	}
	if assign[t.a] == -1 {
		assign[t.a] = ia
	}
}

func rangeAssigned(assign []int32, a, b int) bool {
	for i := a; i <= b; i++ {
		if assign[i] == -1 {
			return false
		}
	}
	return true
}

// minHeadBase folds headBase over each row class: the cheapest head
// candidate per class, with its index (first-minimum wins, deterministic).
func (t *table) minHeadBase() ([]float64, []int32) {
	minHB := make([]float64, t.nCls)
	argHB := make([]int32, t.nCls)
	for r := range minHB {
		minHB[r] = math.Inf(1)
		argHB[r] = -1
	}
	for ia, r := range t.rowCls {
		if hb := t.headBase[ia]; hb < minHB[r] {
			minHB[r] = hb
			argHB[r] = int32(ia)
		}
	}
	return minHB, argHB
}

// minTotal is min over (p_a, p_b) of the full table value
// headBase[p_a] + cost[rowCls[p_a]][p_b].
func (t *table) minTotal() float64 {
	minHB, _ := t.minHeadBase()
	best := math.Inf(1)
	for r := 0; r < t.nCls; r++ {
		hb := minHB[r]
		for _, v := range t.cost[r] {
			if c := hb + v; c < best {
				best = c
			}
		}
	}
	return best
}

// argMin returns a witness (ia, ib) attaining minTotal.
func (t *table) argMin() (int32, int32) {
	minHB, argHB := t.minHeadBase()
	best := math.Inf(1)
	var bi, bj int32
	for r := 0; r < t.nCls; r++ {
		hb := minHB[r]
		for ib, v := range t.cost[r] {
			if c := hb + v; c < best {
				best = c
				bi, bj = argHB[r], int32(ib)
			}
		}
	}
	return bi, bj
}
