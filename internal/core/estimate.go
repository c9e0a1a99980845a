// Search-cost estimation: EstimatePlan predicts how much work a Plan call
// would perform against the CURRENT cross-call cache state, without running
// the search. The admission layer of cmd/primepard uses it for deadline-aware
// scheduling (shed a request whose remaining deadline cannot cover the
// predicted search) and for memory-pressure shedding (admit warm requests,
// shed cold ones).
//
// Soundness rests on key fidelity: the estimator probes the cache with the
// SAME byte keys the search computes — appendEnvSig + appendNodeCrossKey for
// node slots, appendEnvSig + appendEdgeCrossKey for edge matrices, and
// appendEnvSig + appendTableCrossKey for whole segment DP tables, after the
// same within-call signature dedup (sigInterner / edgeKeyOf). A request the
// estimator calls Warm therefore hits on every node evaluation and edge
// matrix when it actually runs. The reverse is conservative by design: a
// cache flush between estimate and search only makes the search slower than
// promised, never the estimate stale-warm forever.
package core

import (
	"fmt"
	"math/bits"
)

// estCandidateUnit weighs one candidate evaluation (intra cost + both
// interfaces) against one edge-matrix cell (a handful of float adds). Like
// treedp's estScan, the constant only has to RANK request costs; callers that
// need seconds learn a ns-per-unit scale from observed searches.
const estCandidateUnit = 64.0

// SearchEstimate is EstimatePlan's prediction for one request.
type SearchEstimate struct {
	// Work is the predicted search work in abstract units (candidate
	// evaluations, edge cells and DP scans on a common scale). It is never
	// zero: even a fully warm request runs the DP over cached tables.
	Work float64
	// Warm reports that every unique node evaluation and edge matrix the
	// search will ask for is already in the cross-call cache, so the
	// quadratic stages cost nothing. Always false when the configuration
	// bypasses the cache (DisableCache, calibration Book, nil Cache).
	Warm bool
	// NodeEvals / CandidatesEvaluated count the uncached unique node slots
	// and the candidate evaluations they imply.
	NodeEvals           int
	CandidatesEvaluated int
	// EdgeBuilds / EdgeCells count the uncached unique edge matrices and
	// the matrix cells they imply.
	EdgeBuilds int
	EdgeCells  int64
	// SegTables counts the graph's DP segments; SegTableHits counts those
	// whose whole segment table is already cached (delta.go), so the DP
	// will skip them. Table hits reduce Work but do not define Warm: Warm
	// keeps its node+edge meaning so the admission gate's warm-bypass
	// semantics are unchanged by the table tier.
	SegTables    int
	SegTableHits int
	// ProbeBeam is the beam width the cache was probed at: budgetStartBeam
	// for budget-mode requests, Opts.Beam otherwise.
	ProbeBeam int
}

// EstimatePlan predicts the work of Plan(ctx, req) against the current cache
// state. Budget-mode requests (req.Budget > 0) are costed at the FIRST beam
// width the budget search tries (budgetStartBeam) — later widths reuse every
// node evaluation and, below the pruning threshold, every edge matrix, so the
// first probe dominates a cold run and bounds a warm one.
//
// Like searchBudget, EstimatePlan temporarily adjusts o.Opts.Beam (restored
// on return), so it must not race a concurrent search on the SAME Optimizer;
// distinct Optimizer values sharing one SearchCache are fine.
func (o *Optimizer) EstimatePlan(req PlanRequest) (SearchEstimate, error) {
	if req.Graph == nil {
		return SearchEstimate{}, fmt.Errorf("core: PlanRequest.Graph is nil")
	}
	if req.Layers < 1 {
		return SearchEstimate{}, fmt.Errorf("core: layers must be ≥ 1, got %d", req.Layers)
	}
	g := req.Graph
	if err := g.Validate(); err != nil {
		return SearchEstimate{}, err
	}
	if len(g.Nodes) < 2 {
		return SearchEstimate{}, fmt.Errorf("core: graph needs at least two nodes")
	}

	saved := o.Opts.Beam
	defer func() { o.Opts.Beam = saved }()
	if req.Budget > 0 {
		o.Opts.Beam = budgetStartBeam
	}

	ccache := o.crossCache()
	var envSig []byte
	if ccache != nil {
		envSig = o.appendEnvSig(nil)
	}
	nbits := o.Cost.Cluster.Bits()

	// Node pass: the same slot dedup as searchOnce, then a cache probe per
	// unique slot. Space sizes come from enumeration only (no cost model).
	in := &sigInterner{}
	slotOf := make([]int, len(g.Nodes))
	var slotNode []int
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
	est := SearchEstimate{Warm: ccache != nil, ProbeBeam: o.Opts.Beam}
	slotSize := make([]int, len(slotNode))
	for s, ni := range slotNode {
		op := g.Nodes[ni]
		slotSize[s] = SpaceSize(op, nbits, o.Opts)
		cached := false
		if ccache != nil {
			key := string(appendNodeCrossKey(envSig, op))
			cached = ccache.getNode(key) != nil
		}
		if !cached {
			est.Warm = false
			est.NodeEvals++
			est.CandidatesEvaluated += slotSize[s]
		}
	}

	// Effective (post-pruning) space per node: beam pruning caps every
	// space at Beam before edges are built.
	eff := func(i int) int {
		n := slotSize[slotOf[i]]
		if b := o.Opts.Beam; b > 0 && n > b {
			return b
		}
		return n
	}

	// Edge pass: the same edgeKeyOf dedup as searchOnce, then a cache probe
	// per unique edge with the one cross key the search uses for that slot.
	// Both the dedup and the keys are the search's own, so against an
	// unchanged cache EdgeBuilds is exactly the search's EdgeMatsBuilt. An
	// uncached matrix costs n_src × n_dst cells.
	seen := make(map[edgeMatKey]bool)
	for _, e := range g.Edges {
		if !o.Opts.DisableCache {
			k := edgeKeyOf(in, g, e, o.Opts.Beam > 0)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		cached := false
		if ccache != nil {
			key := string(o.appendEdgeCrossKey(envSig, g, e))
			cached = ccache.getEdge(key) != nil
		}
		if !cached {
			est.Warm = false
			est.EdgeBuilds++
			est.EdgeCells += int64(eff(e.Src)) * int64(eff(e.Dst))
		}
	}

	// DP term: Bellman scans over the effective spaces of every segment
	// whose table is NOT already cached (probed with the same byte keys the
	// search uses, delta.go), plus the cross-segment merges, the final
	// argmin scan and the logarithmic stacking merges — those run cached or
	// not, so even a fully table-warm request has nonzero Work.
	dp := 0.0
	cuts := g.SegmentCuts()
	for s := 0; s+1 < len(cuts); s++ {
		est.SegTables++
		if ccache != nil {
			key := string(o.appendTableCrossKey(envSig, g, cuts[s], cuts[s+1]))
			if ccache.getTable(key) != nil {
				est.SegTableHits++
				continue
			}
		}
		for i := cuts[s]; i <= cuts[s+1]; i++ {
			dp += estScan * float64(eff(i))
		}
	}
	dp += float64(len(cuts)-1) * estScan * float64(eff(len(g.Nodes)-1))
	if req.Layers > 1 {
		nb := float64(eff(len(g.Nodes) - 1))
		merges := float64(2 * bits.Len(uint(req.Layers-1)))
		dp += merges * estScan * nb
	}

	est.Work = estCandidateUnit*float64(est.CandidatesEvaluated) +
		float64(est.EdgeCells) + dp
	return est, nil
}
