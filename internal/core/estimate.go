// Search-cost estimation: EstimatePlan predicts how much work a Plan call
// would perform against the CURRENT cross-call cache state, without running
// the search. The admission layer of cmd/primepard uses it for deadline-aware
// scheduling (shed a request whose remaining deadline cannot cover the
// predicted search) and for memory-pressure shedding (admit warm requests,
// shed cold ones).
//
// Soundness rests on key fidelity: the estimator probes the cache with the
// SAME byte keys the search computes — appendEnvSig + appendPlanCrossKey for
// the finished answer and appendEnvSig + appendLayerCrossKey for the layer's
// α-free inputs — and in the search's order: the plan tier first, with the
// same fits check. A PlanHit is therefore a plan hit, which runs no node
// pass, and a request the estimator calls Warm otherwise is a layer hit,
// which runs no node pass and builds no edge matrix but still pays the DP
// term. A cold count prices every unique node slot and edge matrix of the
// search's own dedup (nodeSlots, edgeSlots). The reverse is conservative by
// design: a cache flush between estimate and search only makes the search
// slower than promised, never the estimate stale-warm forever.
//
// Space sizes come from the same probes: a layer hit's node entries hold
// exactly the candidate lists SpaceSize would enumerate, so a warm estimate
// enumerates no candidate space, and only a cold count runs SpaceSize.
package core

import "fmt"

// estCandidateUnit weighs one candidate evaluation (its enumeration, intra
// cost and axis projections; the device sweeps run once per distinct
// projection, not per candidate) against one edge-matrix cell (a handful of
// float adds). Like treedp's estScan, the constant only has to RANK request
// costs; callers that need seconds learn a ns-per-unit scale from observed
// searches.
const estCandidateUnit = 64.0

// SearchEstimate is EstimatePlan's prediction for one request.
type SearchEstimate struct {
	// Work is the predicted search work in abstract units (candidate
	// evaluations, edge cells and DP scans on a common scale). It is never
	// zero: a plan hit still copies one answer per node.
	Work float64
	// Warm reports that the layer's node entries and edge matrices are
	// already in the cross-call cache (a layer hit), so the quadratic
	// stages cost nothing and, short of a plan hit, only the layer table's
	// DP runs. A plan hit asks for neither, so it is always Warm. Always
	// false when the configuration bypasses the cache (calibration Book,
	// nil Cache): the call's private cache is empty.
	Warm bool
	// PlanHit reports that the finished answer is in the plan tier
	// (plancache.go): the search will run no node pass, and the node, edge
	// and DP counts below stay zero.
	PlanHit bool
	// NodeEvals / CandidatesEvaluated count the unique node slots a cold
	// search evaluates and the candidate evaluations they imply.
	NodeEvals           int
	CandidatesEvaluated int
	// EdgeBuilds / EdgeCells count the unique edge matrices a cold search
	// prepares and the candidate pairs they span. EdgeCells bounds the cells
	// the search fills from above, and loosely: a cold search fills only the
	// cells its bounds keep (DESIGN.md §5.40), a fraction of even the
	// grouped cells, and how many depends on the costs, which the estimate
	// does not compute.
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
	envSig := o.appendEnvSig(nil)
	nbits := o.Cost.Cluster.Bits()

	// Plan tier: the same key and fits check as search, so a PlanHit promise
	// holds against an unchanged cache. Work is one unit per node copied. A
	// masked request skips the tier, as search does; its node pass and edge
	// preparation cover the whole space, and the DP term below prices that
	// space too, an upper bound on the masked DP.
	if e := ccache.plans.get(string(o.appendPlanCrossKey(envSig, g))); req.Keep == nil && e != nil && e.fits(g, nbits, req.Layers) {
		return SearchEstimate{Warm: true, PlanHit: true, Work: float64(len(g.Nodes))}, nil
	}

	// Layer tier: the same key as search. A hit's space sizes are its node
	// entries' list lengths, which evalNode filled with the unfiltered
	// Candidates under the same environment key (the prefix folds every
	// enumeration option).
	est := SearchEstimate{Warm: true}
	var size func(i int) int
	if in := ccache.layers.get(string(appendLayerCrossKey(envSig, g))); in != nil {
		size = func(i int) int { return len(in.slots[in.slotOf[i]].seqs) }
	} else {
		// Cold: prepare's slots (nodeSlots, edgeSlots), each evaluated or
		// built once. An edge matrix costs n_src × n_dst cells.
		est.Warm = false
		sigs := &sigInterner{}
		slotOf, slotNode := nodeSlots(g, sigs)
		slotSize := make([]int, len(slotNode))
		for s, ni := range slotNode {
			slotSize[s] = SpaceSize(g.Nodes[ni], nbits, o.Opts)
			est.CandidatesEvaluated += slotSize[s]
		}
		est.NodeEvals = len(slotNode)
		size = func(i int) int { return slotSize[slotOf[i]] }
		uniqEdges, _ := edgeSlots(g, sigs)
		for _, e := range uniqEdges {
			est.EdgeCells += int64(size(e.Src)) * int64(size(e.Dst))
		}
		est.EdgeBuilds = len(uniqEdges)
	}

	// DP term: Bellman scans over the spaces of every segment,
	// plus the cross-segment merges and the final layer pick.
	cuts := g.SegmentCuts()
	dp := 0.0
	for s := 0; s+1 < len(cuts); s++ {
		for i := cuts[s]; i <= cuts[s+1]; i++ {
			dp += float64(estScan * float64(size(i)))
		}
	}
	dp += float64(float64(len(cuts)-1) * estScan * float64(size(len(g.Nodes)-1)))

	est.Work = float64(estCandidateUnit*float64(est.CandidatesEvaluated)) + float64(est.EdgeCells) + dp
	return est, nil
}
