// Search-cost estimation: EstimatePlan predicts how much work a Plan call
// would perform against the CURRENT cross-call cache state, without running
// the search. The admission layer of cmd/primepard uses it for deadline-aware
// scheduling (shed a request whose remaining deadline cannot cover the
// predicted search) and for memory-pressure shedding (admit warm requests,
// shed cold ones).
//
// Soundness rests on key fidelity: the estimator probes the cache with the
// SAME byte keys the search computes — appendEnvSig + appendNodeCrossKey for
// node slots, appendEnvSig + appendPlanCrossKey for the finished answer, and
// appendEnvSig + appendEdgeCrossKey for edge matrices, over the slots of the
// same within-call dedup helpers (nodeSlots, edgeSlots). A request the
// estimator calls Warm therefore hits on every node evaluation and on every
// edge matrix it will ask for when it actually runs, and a PlanHit is a plan
// hit. Beneath the plan tier every request builds its layer table, so a
// Warm miss still pays the DP term. The reverse is conservative by design:
// a cache flush between estimate and search only makes the search slower
// than promised, never the estimate stale-warm forever.
//
// Space sizes come from the same probes: a node hit's stored candidate list
// is exactly what SpaceSize would enumerate, so a warm estimate enumerates
// no candidate space, and only uncached slots run SpaceSize.
package core

import "fmt"

// estCandidateUnit weighs one candidate evaluation (intra cost + both
// interfaces) against one edge-matrix cell (a handful of float adds). Like
// treedp's estScan, the constant only has to RANK request costs; callers that
// need seconds learn a ns-per-unit scale from observed searches.
const estCandidateUnit = 64.0

// SearchEstimate is EstimatePlan's prediction for one request.
type SearchEstimate struct {
	// Work is the predicted search work in abstract units (candidate
	// evaluations, edge cells and DP scans on a common scale). It is never
	// zero: a plan hit still looks up every node.
	Work float64
	// Warm reports that every unique node evaluation and edge matrix the
	// search will ask for is already in the cross-call cache, so the
	// quadratic stages cost nothing and, short of a plan hit, only the
	// layer table's DP runs. A plan hit asks for no edge matrix, so it is
	// Warm whenever its nodes are cached. Always false when the
	// configuration bypasses the cache (calibration Book, nil Cache).
	Warm bool
	// PlanHit reports that the finished answer is in the plan tier
	// (plancache.go): the search will run the node pass only, and the edge
	// and DP counts below stay zero.
	PlanHit bool
	// NodeEvals / CandidatesEvaluated count the uncached unique node slots
	// and the candidate evaluations they imply.
	NodeEvals           int
	CandidatesEvaluated int
	// EdgeBuilds / EdgeCells count the uncached unique edge matrices and
	// the matrix cells they imply.
	EdgeBuilds int
	EdgeCells  int64
}

// EstimatePlan predicts the work of Plan(ctx, req) against the current cache
// state. It reads the optimizer and the cache and mutates neither.
func (o *Optimizer) EstimatePlan(req PlanRequest) (SearchEstimate, error) {
	if req.Graph == nil {
		return SearchEstimate{}, fmt.Errorf("core: PlanRequest.Graph is nil")
	}
	if req.Layers < 1 {
		return SearchEstimate{}, fmt.Errorf("core: layers must be ≥ 1, got %d", req.Layers)
	}
	if err := o.checkDevices(); err != nil {
		return SearchEstimate{}, err
	}
	g := req.Graph
	if err := g.Validate(); err != nil {
		return SearchEstimate{}, err
	}
	if len(g.Nodes) < 2 {
		return SearchEstimate{}, fmt.Errorf("core: graph needs at least two nodes")
	}

	ccache := o.crossCache()
	var envSig []byte
	if ccache != nil {
		envSig = o.appendEnvSig(nil)
	}
	nbits := o.Cost.Cluster.Bits()

	// Node pass: search's slots (nodeSlots), then a cache probe per
	// unique slot. A cached slot's space size is the length of its stored
	// list, which evalNode filled with the unfiltered Candidates under the
	// same environment key (the prefix folds every enumeration option);
	// only an uncached slot, which the search is about to evaluate anyway,
	// is enumerated.
	in := &sigInterner{}
	slotOf, slotNode := nodeSlots(g, in)
	est := SearchEstimate{Warm: ccache != nil}
	slotSize := make([]int, len(slotNode))
	for s, ni := range slotNode {
		op := g.Nodes[ni]
		if ccache != nil {
			if e := ccache.nodes.get(string(appendNodeCrossKey(envSig, op))); e != nil {
				slotSize[s] = len(e.seqs)
				continue
			}
		}
		slotSize[s] = SpaceSize(op, nbits, o.Opts)
		est.Warm = false
		est.NodeEvals++
		est.CandidatesEvaluated += slotSize[s]
	}

	size := func(i int) int { return slotSize[slotOf[i]] }
	nodeWork := estCandidateUnit * float64(est.CandidatesEvaluated)

	// Plan tier: the same key and bounds check as search, so a PlanHit
	// promise holds against an unchanged cache. Work drops to one unit per
	// node lookup on top of any node evaluations.
	if ccache != nil {
		if e := ccache.plans.get(string(o.appendPlanCrossKey(envSig, g))); e != nil {
			sizes := make([]int, len(g.Nodes))
			for i := range sizes {
				sizes[i] = size(i)
			}
			if e.fits(sizes) {
				est.PlanHit = true
				est.Work = nodeWork + float64(len(g.Nodes))
				return est, nil
			}
		}
	}

	// Edge pass: buildLayerTable's slots (edgeSlots), then a cache probe
	// per unique edge with the one cross key the search uses for that slot.
	// Both the dedup and the keys are the search's own, so against an
	// unchanged cache EdgeBuilds is exactly the search's EdgeMatsBuilt. An
	// uncached matrix costs n_src × n_dst cells.
	uniqEdges, _ := edgeSlots(g, in)
	for _, e := range uniqEdges {
		if ccache == nil || ccache.edges.get(string(appendEdgeCrossKey(envSig, g, e))) == nil {
			est.Warm = false
			est.EdgeBuilds++
			est.EdgeCells += int64(size(e.Src)) * int64(size(e.Dst))
		}
	}

	// DP term: Bellman scans over the spaces of every segment,
	// plus the cross-segment merges and the final layer pick.
	cuts := g.SegmentCuts()
	dp := 0.0
	for s := 0; s+1 < len(cuts); s++ {
		for i := cuts[s]; i <= cuts[s+1]; i++ {
			dp += estScan * float64(size(i))
		}
	}
	dp += float64(len(cuts)-1) * estScan * float64(size(len(g.Nodes)-1))

	est.Work = nodeWork + float64(est.EdgeCells) + dp
	return est, nil
}
