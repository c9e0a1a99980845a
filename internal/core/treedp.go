// Binary-split tree DP: instead of sweeping a segment's Bellman recurrence
// left to right — which re-solves every interior step once per HEAD interface
// class — split the segment, solve each half over its own (usually far
// smaller) head-class dimension, and combine the halves with the same
// class-factored min-plus merge the optimizer already uses between segments
// (Eqs. 13–14). The segment's extended edges keep
// their usual roles: targets inside the left half stay chain-interior edges,
// a target at the segment end becomes the merge's cross matrix, and split
// points that would strand a target in the right half are simply invalid.
//
// The right half's head is the split node, whose own cost the left half
// already counts, so merge folds left-table values through unchanged. Split
// plans are chosen by a deterministic work estimate over the edge matrices'
// group dimensions — never wall time or worker count — so the executed shape,
// and with it every value and witness, is reproducible and identical between
// the production search and the tests' uncached reference.
//
// The tree evaluates the recurrence under a different parenthesization of
// the IEEE path sums than the chain, so the two can differ in the last ulps;
// the tree is the canonical production association (DESIGN.md §5.3). The
// tests compare it against segmentDP over whole segments
// (FuzzTreeChainEquivalence).
package core

import (
	"context"

	"repro/internal/graph"
)

// segPlan is the planned execution shape of one segment range: a chain leaf
// (m < 0) or a binary merge at split node m.
type segPlan struct {
	a, b        int
	m           int
	left, right *segPlan
}

// planSegment plans the execution shape of segment [a, b] over cands and
// edgeMats: the left-to-right Bellman chain for short segments, a planned
// tree of binary merges otherwise.
func planSegment(g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, a, b int) *segPlan {
	if b-a <= 2 {
		return &segPlan{a: a, b: b, m: -1}
	}
	d := newSegDims(g, cands, edgeMats, a, b)
	return d.plan(a, b, make(map[[2]int]planEntry)).plan
}

// layerShape plans every segment of g, in segment order. The shape fixes the
// association of every path sum, so a DP run on a subset of the candidates
// takes the shape planned from the full space (DESIGN.md §5.38): its values
// are then bit-identical to the full DP's wherever both keep the minimizing
// candidates.
func layerShape(g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat) []*segPlan {
	cuts := g.SegmentCuts()
	shape := make([]*segPlan, len(cuts)-1)
	for s := range shape {
		shape[s] = planSegment(g, cands, edgeMats, cuts[s], cuts[s+1])
	}
	return shape
}

// execSegPlan materializes a planned shape: chain leaves via segmentDP,
// split nodes via merge with the segment head's extended edges to exactly
// p.b as the cross matrix.
func (o *Optimizer) execSegPlan(ctx context.Context, p *segPlan, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, st *SearchStats, w int) (*table, error) {
	if p.m < 0 {
		return o.segmentDP(ctx, g, cands, edgeMats, p.a, p.b, st, w)
	}
	left, err := o.execSegPlan(ctx, p.left, g, cands, edgeMats, st, w)
	if err != nil {
		return nil, err
	}
	right, err := o.execSegPlan(ctx, p.right, g, cands, edgeMats, st, w)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.DPTreeMerges++
	}
	return o.merge(ctx, left, right, o.crossEdges(g, edgeMats, p.a, p.b), st, w)
}

// segDims caches the dimensions the split planner's work estimate reads:
// candidate counts, adjacent-edge group dims, and the segment head's
// extended-edge targets with their row-group counts. Everything derives
// from the edge matrices, which are bit-identical between the production
// search and the tests' uncached reference, so plans are reproducible.
type segDims struct {
	a, b int
	n    []int // n[j-a] = |P_j|
	adjR []int // adjR[j-a] = row groups of edge j→j+1 (0 = no edge), j < b
	adjC []int // adjC[j-a] = column groups of edge j→j+1 (0 = no edge)
	extT []int // extended-edge targets of a, ascending (a+2 ≤ t ≤ b)
	extR []int // extR[i] = row groups of the extended edge to extT[i]
}

// capMul multiplies group counts, treating 0 as "absent" and saturating at
// max — refining a class partition can never exceed the candidate count.
func capMul(x, y, max int) int {
	if x <= 0 {
		x = 1
	}
	if y <= 0 {
		y = 1
	}
	if y != 0 && x > max/y {
		return max
	}
	return x * y
}

func newSegDims(g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, a, b int) *segDims {
	d := &segDims{a: a, b: b,
		n:    make([]int, b-a+1),
		adjR: make([]int, b-a+1),
		adjC: make([]int, b-a+1),
	}
	for j := a; j <= b; j++ {
		d.n[j-a] = len(cands[j].seqs)
	}
	for j := a + 1; j <= b; j++ {
		uR, uC, extUR := 0, 0, 0
		for _, e := range g.InEdges(j) {
			m := edgeMats[e]
			switch e.Src {
			case j - 1:
				uR = capMul(uR, m.numRowGroups(), d.n[j-1-a])
				uC = capMul(uC, m.numColGroups(), d.n[j-a])
			case a: // j > a+1 here: j == a+1 matches the case above
				extUR = capMul(extUR, m.numRowGroups(), d.n[0])
			}
		}
		d.adjR[j-1-a] = uR
		d.adjC[j-1-a] = uC
		if extUR > 0 {
			d.extT = append(d.extT, j)
			d.extR = append(d.extR, extUR)
		}
	}
	return d
}

// headCls estimates the head-class count of sub-range [x, y]: the joint
// refinement of x's adjacent-edge row groups and (when x is the segment
// head) of every extended edge targeting (x, y]. The group-count product
// bounds the refinement; |P_x| caps it.
func (d *segDims) headCls(x, y int) float64 {
	h := d.adjR[x-d.a]
	if h <= 0 {
		h = 1
	}
	if x == d.a {
		for i, t := range d.extT {
			if t <= y {
				h = capMul(h, d.extR[i], d.n[0])
			}
		}
	}
	if h > d.n[x-d.a] {
		h = d.n[x-d.a]
	}
	return float64(h)
}

// estScan is the row groups each output column is charged per min-plus
// product. It was calibrated on the table2 sweep when the kernels exited
// sorted scans early (DESIGN.md §5.3); the kernel now relaxes every group,
// but the constant stays frozen: it fixes the planned shape, the shape fixes
// the association of every path sum, and another value would move the last
// ulp of some LayerCosts (DESIGN.md §5.39).
const estScan = 10.0

// chainCost estimates the Bellman-chain work of [x, y]: per head class, the
// first-step fill plus each step's fold, min-plus product and expansion, in
// the frozen units of estScan.
func (d *segDims) chainCost(x, y int) float64 {
	h := d.headCls(x, y)
	w := h * float64(d.n[x+1-d.a])
	for j := x + 2; j <= y; j++ {
		uR, uC := d.adjR[j-1-d.a], d.adjC[j-1-d.a]
		solve := float64(d.n[j-1-d.a]) + float64(d.n[j-d.a])
		if uR > 0 {
			scan := estScan * float64(uC)
			if full := float64(uR) * float64(uC); full < scan {
				scan = full
			}
			solve += scan
		}
		w += float64(h * solve)
	}
	return w
}

// mergeCost estimates combining [x, m] and [m, y]: per left head class, a
// fold over |P_m| plus a min-plus product and fill over the |P_y| output
// columns, on top of a term for the right table's head classes once per
// merge, in the frozen units of estScan (its preprocessing when the kernels
// sorted).
func (d *segDims) mergeCost(x, m, y int) float64 {
	hL := d.headCls(x, y)
	nR := d.headCls(m, y)
	nb := float64(d.n[y-d.a])
	nm := float64(d.n[m-d.a])
	scan := estScan
	if nR < scan {
		scan = nR
	}
	return float64(2*nR*nb) + float64(hL*(nm+float64((scan+2)*nb)))
}

type planEntry struct {
	plan *segPlan
	cost float64
}

// plan chooses the cheapest execution shape of [x, y] under the work
// estimate; ties keep the chain (deterministic). A split at m is valid only
// when no head-extended edge targets (m, y) — a target AT y becomes the
// merge's cross matrix, one at or before m stays inside the left half.
func (d *segDims) plan(x, y int, memo map[[2]int]planEntry) planEntry {
	if e, ok := memo[[2]int{x, y}]; ok {
		return e
	}
	best := planEntry{plan: &segPlan{a: x, b: y, m: -1}, cost: d.chainCost(x, y)}
	if y-x > 2 {
		lo := x + 1
		if x == d.a {
			for _, t := range d.extT {
				if t < y && t > lo {
					lo = t
				}
			}
		}
		for m := lo; m < y; m++ {
			l := d.plan(x, m, memo)
			r := d.plan(m, y, memo)
			if c := l.cost + r.cost + d.mergeCost(x, m, y); c < best.cost {
				best = planEntry{plan: &segPlan{a: x, b: y, m: m, left: l.plan, right: r.plan}, cost: c}
			}
		}
	}
	memo[[2]int{x, y}] = best
	return best
}
