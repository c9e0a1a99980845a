// Bound-pruned layer DP (DESIGN.md §5.38): before the exact DP, prune runs
// one stage twice, with the node-only bound LB₀ and then with the relaxed
// bound LB. A stage bounds every kept candidate of every node from below,
// runs a small DP whose layer cost, a real plan's, is the incumbent, and
// drops every candidate whose bound exceeds the incumbent. The exact DP then
// runs on the survivors only and returns the plan the DP over the full space
// returns, bit for bit:
//
//   - every candidate on a plan whose DP value is the optimum has a bound at
//     most the incumbent (up to the rounding margin), so it survives;
//   - the DP sums every path in an association fixed by the graph alone
//     (each segment a left-to-right chain of compositions, the segments
//     composed in order), so
//     a survivor's prefix values are path minima over a subset of the same
//     paths summed in the same association: they never drop, and on the
//     optimal paths they are unchanged;
//   - every minimum takes the lowest candidate index on a tie (minplus.go),
//     so removing candidates that attain no minimum on those paths cannot
//     change which witness wins.
//
// The relaxation replaces each extended edge a→j by the minimum of its row
// for p_a, a cost that depends on p_a alone; what is left is a chain, whose
// min-marginals a forward and a backward min-plus pass give exactly.
package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// relaxedBound returns LB[v][c], a lower bound on the cost of every layer
// plan that assigns candidate c to node v (its min-marginal). With n′_v(c)
// the node cost plus, for each extended edge leaving v, the minimum of that
// edge's matrix row, F the forward and B the backward min-plus pass of the
// chain over n′ and the summed j−1→j matrices, LB = F + B − n′. For a
// periodic graph the head and tail run the same candidate, so both take
// max(LB_head, LB_tail). An edge without a matrix in edgeMats reads as zero;
// with edgeMats nil every edge does, which gives the node-only bound LB₀
// (every RedistributeDetail cell is ≥ 0, so LB₀ ≤ LB).
func relaxedBound(g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, periodic bool) [][]float64 {
	n := len(cands)
	own := make([][]float64, n) // n′
	for v, c := range cands {
		own[v] = slices.Clone(c.total)
	}
	adj := make([][]*edgeMat, n) // adj[j]: the edges j−1→j
	for _, e := range g.Edges {
		m := edgeMats[e]
		if m == nil {
			continue
		}
		if !e.IsExtended() {
			adj[e.Dst] = append(adj[e.Dst], m)
			continue
		}
		rowMin := make([]float64, m.nr)
		for r := range rowMin {
			rowMin[r] = minOf(m.row(r))
		}
		for c, r := range m.rows {
			own[e.Src][c] += rowMin[r]
		}
	}
	step := make([]*edgeMat, n) // step[j]: the summed j−1→j matrix, nil without one
	for j := 1; j < n; j++ {
		if len(adj[j]) > 0 {
			step[j] = sumEdgeMats(adj[j])
		}
	}

	fwd := make([][]float64, n)
	fwd[0] = own[0]
	for j := 1; j < n; j++ {
		fwd[j] = chainStep(fwd[j-1], step[j], false, own[j])
	}
	bwd := make([][]float64, n)
	bwd[n-1] = own[n-1]
	for j := n - 1; j > 0; j-- {
		bwd[j-1] = chainStep(bwd[j], step[j], true, own[j-1])
	}
	lb := make([][]float64, n)
	for v := range lb {
		lb[v] = make([]float64, len(own[v]))
		for c, x := range own[v] {
			lb[v][c] = fwd[v][c] + bwd[v][c] - x
		}
	}
	if periodic {
		head, tail := lb[0], lb[n-1]
		for c := range head {
			head[c] = max(head[c], tail[c])
		}
		lb[n-1] = head
	}
	return lb
}

// chainStep is one min-plus pass step of the relaxed chain: out[c] = own[c]
// + min_k prev[k] + m(k, c) forward, or min_k m(c, k) + prev[k] backward,
// with m read as zero when nil. prev is folded over m's row groups (forward)
// or column groups (backward) first, then the minimum runs over groups.
func chainStep(prev []float64, m *edgeMat, backward bool, own []float64) []float64 {
	out := make([]float64, len(own))
	if m == nil {
		lo := minOf(prev)
		for c, x := range own {
			out[c] = lo + x
		}
		return out
	}
	in, outIDs, nIn, nOut := m.rows, m.cols, m.nr, m.nc
	if backward {
		in, outIDs, nIn, nOut = m.cols, m.rows, m.nc, m.nr
	}
	fold := make([]float64, nIn)
	for u := range fold {
		fold[u] = math.Inf(1)
	}
	for k, u := range in {
		if prev[k] < fold[u] {
			fold[u] = prev[k]
		}
	}
	best := make([]float64, nOut)
	for u := range best {
		best[u] = math.Inf(1)
	}
	for r := 0; r < m.nr; r++ {
		row := m.row(r)
		if backward {
			b := best[r]
			for c, x := range row {
				if v := x + fold[c]; v < b {
					b = v
				}
			}
			best[r] = b
			continue
		}
		f := fold[r]
		for c, x := range row {
			if v := f + x; v < best[c] {
				best[c] = v
			}
		}
	}
	for c, x := range own {
		out[c] = best[outIDs[c]] + x
	}
	return out
}

// boundMargin is the relative rounding margin δ of the survivor test. A
// plan's cost sums N = |V| + |E| non-negative terms, and any float
// association of at most N such terms is within a factor 1 ± γ (γ ≈ N·2⁻⁵³)
// of the exact sum. The bound's forward, backward and subtraction passes are
// off by at most 3γ + 3·2⁻⁵³ relative, the optimum's DP value by γ, and the
// test's own product by 2·2⁻⁵³, so 4·(N+2)·2⁻⁵³ covers every rounding
// between a survivor's bound and the incumbent (DESIGN.md §5.38).
func boundMargin(g *graph.Graph) float64 {
	return float64(float64(4*(len(g.Nodes)+len(g.Edges)+2)) * 0x1p-53)
}

// keepBelow returns, per node, the ascending indices of the candidates
// whose bound is at most limit.
func keepBelow(lb [][]float64, limit float64) [][]int32 {
	keep := make([][]int32, len(lb))
	for v, l := range lb {
		for c, b := range l {
			if b <= limit {
				keep[v] = append(keep[v], int32(c))
			}
		}
	}
	return keep
}

// relaxedOpt returns R = max_v min_c LB_v(c), the relaxed optimum: every
// node's least bound is at most the optimum, so R is too.
func relaxedOpt(lb [][]float64) float64 {
	r := math.Inf(-1)
	for _, l := range lb {
		r = max(r, minOf(l))
	}
	return r
}

// prune returns, per node, the ascending full-space indices of the
// candidates the exact DP runs over, and cands and the prepared matrices
// edgeMats restricted to them, filling on the way only the edge cells the
// restricted inputs read (DESIGN.md §5.40). mask, when not nil, lists per
// node the full-space indices of the candidates the search may use
// (DESIGN.md §5.41), and the kept set K starts as those (else as every
// candidate).
//
// It runs one stage twice: stage 0 with LB₀, the bound with every edge read
// as zero, which needs no edge cell, and stage 1 with LB over K's filled
// matrices. A stage
//
//  1. computes the bound over K, so a candidate outside K weakens no other
//     node's bound;
//  2. fills the cells of the candidates attaining the bound's relaxed
//     optimum and runs the DP over them: its layer cost U is a real plan's,
//     so at least the optimum;
//  3. keeps {bound ≤ U·(1+δ)} of K, which holds every candidate on a plan
//     whose DP value is the optimum, and fills the cells the inputs
//     restricted to it read.
//
// Stage 1's fills find every cell filled: its candidates lie in stage 0's K.
// Restricting the full matrices gives the matrices restricting K's copies
// would (liveGroups renumbers in ascending order). Within K the restricted
// DP keeps the full DP's values on the optimal paths and the lowest-index tie
// rule its witnesses, so the answer is the DP's over the (masked) space, bit
// for bit.
func (o *Optimizer) prune(ctx context.Context, g *graph.Graph, in *layerInputs, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, mask [][]int32, periodic bool, stats *SearchStats) ([][]int32, []*nodeCands, map[*graph.Edge]*edgeMat, error) {
	keep, kCands := mask, cands
	if mask != nil {
		kCands = make([]*nodeCands, len(cands))
		for v, c := range cands {
			kCands[v] = c.restrict(mask[v])
		}
	}
	var kMats map[*graph.Edge]*edgeMat // nil in stage 0: every edge reads as zero
	for stage := 0; stage < 2; stage++ {
		lb := relaxedBound(g, kCands, kMats, periodic)
		incCands, incMats, err := in.fillRestrict(ctx, o.Cost, g, cands, edgeMats, through(keep, keepBelow(lb, relaxedOpt(lb))), stats)
		if err != nil {
			return nil, nil, nil, err
		}
		t, err := o.layerDP(ctx, g, incCands, incMats, &SearchStats{Workers: stats.Workers})
		if err != nil {
			return nil, nil, nil, err
		}
		_, ub := t.layerPlan(len(cands), periodic)
		keep = through(keep, keepBelow(lb, ub*(1+boundMargin(g))))
		if kCands, kMats, err = in.fillRestrict(ctx, o.Cost, g, cands, edgeMats, keep, stats); err != nil {
			return nil, nil, nil, err
		}
	}
	return keep, kCands, kMats, nil
}

// through maps per-node indices into per-node index lists: inner[v][i]
// becomes outer[v][inner[v][i]], in place. A nil outer is the identity.
func through(outer, inner [][]int32) [][]int32 {
	if outer == nil {
		return inner
	}
	for v, iv := range inner {
		for i, ix := range iv {
			iv[i] = outer[v][ix]
		}
	}
	return inner
}

// restrictLayer returns cands and edgeMats restricted to the candidates
// keep[v] (ascending indices) of every node v: per node its sequences and
// totals only, per edge its matrix over the kept rows and columns. A node or
// matrix that keeps everything is shared, not copied.
func restrictLayer(g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, keep [][]int32) ([]*nodeCands, map[*graph.Edge]*edgeMat) {
	sub := make([]*nodeCands, len(cands))
	for v, c := range cands {
		sub[v] = c.restrict(keep[v])
	}
	mats := make(map[*graph.Edge]*edgeMat, len(edgeMats))
	for _, e := range g.Edges {
		mats[e] = edgeMats[e].restrict(keep[e.Src], keep[e.Dst])
	}
	return sub, mats
}

// restrict returns the candidates keep of c, sequences and totals only.
func (c *nodeCands) restrict(keep []int32) *nodeCands {
	if len(keep) == len(c.seqs) {
		return c
	}
	seqs := make([]partition.Seq, len(keep))
	total := make([]float64, len(keep))
	for i, k := range keep {
		seqs[i], total[i] = c.seqs[k], c.total[k]
	}
	return &nodeCands{nodeEntry: &nodeEntry{seqs: seqs}, total: total}
}

// restrict returns m over the source candidates rowKeep and destination
// candidates colKeep, its core compacted to the groups that keep a member,
// which spares the DP's min-plus products the dead groups.
func (m *edgeMat) restrict(rowKeep, colKeep []int32) *edgeMat {
	if len(rowKeep) == len(m.rows) && len(colKeep) == len(m.cols) {
		return m
	}
	rows, rowOld := liveGroups(m.rows, m.nr, rowKeep)
	cols, colOld := liveGroups(m.cols, m.nc, colKeep)
	out := &edgeMat{rows: rows, cols: cols, nr: len(rowOld), nc: len(colOld),
		vals: make([]float64, len(rowOld)*len(colOld))}
	for r, or := range rowOld {
		src, dst := m.row(int(or)), out.row(r)
		for c, oc := range colOld {
			dst[c] = src[oc]
		}
	}
	return out
}

// liveGroups renumbers the groups of ids (n of them) that some kept
// candidate belongs to, in ascending order of their old ids. It returns each
// kept candidate's new group id and each live group's old id.
func liveGroups(ids []int32, n int, keep []int32) (kept, old []int32) {
	next := make([]int32, n) // 0: dead; else new id + 1
	for _, k := range keep {
		next[ids[k]] = 1
	}
	for u, live := range next {
		if live != 0 {
			old = append(old, int32(u))
			next[u] = int32(len(old))
		}
	}
	kept = make([]int32, len(keep))
	for i, k := range keep {
		kept[i] = next[ids[k]] - 1
	}
	return kept, old
}

// minOf returns the minimum of v, +Inf when v is empty.
func minOf(v []float64) float64 {
	lo := math.Inf(1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
	}
	return lo
}
