// Segmented dynamic programming (paper §5): Bellman iterations within
// segments (Eqs. 11–12), segment merging (Eqs. 13–14) and the periodic
// layer every stacked layer runs. Strategy reconstruction walks stored
// back-pointers.
package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
)

// addProduct records one min-plus product's relaxed cells, tolerating the
// nil stats of direct test invocations. Products run one after another on
// the search's own goroutine; their counts depend only on shapes, so totals
// are worker-independent.
func addProduct(st *SearchStats, scanned int64) {
	if st != nil {
		st.EntriesScanned += scanned
	}
}

// Optimizer searches the partition space of a computation graph.
type Optimizer struct {
	Cost *cost.Model
	Opts Options
	// Cache persists each layer graph's α-free inputs and finished plans
	// ACROSS Plan calls (see crosscache.go). NewOptimizer attaches the
	// process-wide DefaultSearchCache; set a private NewSearchCache to
	// isolate. nil isolates each call: every search gets an empty cache of
	// its own.
	Cache *SearchCache
}

// NewOptimizer returns an optimizer over the given cost model with defaults.
func NewOptimizer(m *cost.Model) *Optimizer {
	return &Optimizer{Cost: m, Opts: DefaultOptions(), Cache: DefaultSearchCache}
}

// nodeCands is one graph node's candidates at one α: the α-independent
// entry a layerInputs holds, plus the DP node cost in its own flat slice
// (total) so the DP folds walk contiguous memory; the Intra breakdowns stay
// around only for Strategy reporting.
type nodeCands struct {
	*nodeEntry
	total []float64 // Intra.Total(alpha), the DP node cost
}

// Strategy is an optimized partition assignment for the layer every stacked
// layer runs, plus the cost of running it Layers times.
type Strategy struct {
	// Seqs has one partition sequence per node of the layer graph. For a
	// stackable graph (head and tail spaces index-identical) the head and
	// tail carry the same candidate, so every layer runs Seqs.
	Seqs []partition.Seq
	// Intra is the cost breakdown per node under Seqs.
	Intra []cost.Intra
	// LayerCost is the DP cost of one layer under Seqs: the periodic
	// minimum C(a*, a*) over shared boundary states for a stackable graph,
	// the free minimum over (head, tail) states otherwise.
	LayerCost float64
	// TotalCost is float64(Layers)·LayerCost, the cost of the plan Seqs
	// describes.
	TotalCost float64
	// Layers is the stacked layer count.
	Layers int
	// SpaceSizes records |P| per node for reporting: the masked space's
	// under PlanRequest.Keep.
	SpaceSizes []int
	// Stats instruments the search that produced this strategy.
	Stats SearchStats
}

// evalNode enumerates and evaluates the candidate space of op on up to w
// workers, then interns its output and input axis patterns for the edge
// builds straight from the sequences (cost.Model.SpacePatterns).
func (o *Optimizer) evalNode(op *graph.Op, w int) *nodeEntry {
	seqs := Candidates(op, o.Cost.Cluster.Bits(), o.Opts)
	e := &nodeEntry{seqs: seqs, intra: make([]cost.Intra, len(seqs))}
	parallelRows(w, len(seqs), func(i int) {
		e.intra[i] = o.Cost.IntraCost(op, seqs[i])
	})
	e.outPats, e.inPats = o.Cost.SpacePatterns(op, seqs, true), o.Cost.SpacePatterns(op, seqs, false)
	return e
}

// table is an optimal-substructure matrix C_{a,b}(p_a, p_b) with one row
// per head candidate. The head node's own cost stays out of the rows:
//
//	C(ia, ib) = headBase[ia] + cost[ia][ib]
//
// A leaf is one adjacent step a→a+1: a segment's first step, or the right
// operand of a Bellman step, which holds no cost. Any other table is the
// composition (compose) of left over a..m and right over m..b, and
// argmid[ia][ib] is its best middle candidate index. A composition drops the
// cost rows it consumes, so only tables not yet composed hold costs.
type table struct {
	a, b        int
	headBase    []float64 // the head node's own cost (shared with cands[a].total)
	cost        [][]float64
	left, right *table
	argmid      [][]int32
}

// operand is compose's right operand in grouped form:
// R(pm, pb) = rows[rowOf[pm]][colOf[pb]].
type operand struct {
	rows         [][]float64
	rowOf, colOf []int32
}

// operand returns m's row groups as compose's right operand.
func (m *edgeMat) operand() operand {
	rows := make([][]float64, m.nr)
	for u := range rows {
		rows[u] = m.row(u)
	}
	return operand{rows: rows, rowOf: m.rows, colOf: m.cols}
}

// operand returns t's cost rows as compose's right operand, one group per
// candidate.
func (t *table) operand() operand {
	return operand{rows: t.cost, rowOf: identityIDs(len(t.cost)), colOf: identityIDs(len(t.cost[0]))}
}

// identityIDs returns 0, 1, …, n−1.
func identityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// compose is the layer DP's one min-plus composition (Eqs. 12–14):
//
//	out[pa][pb] = min_pm { left[pa][pm] + R(pm, pb) } + own[pb] + cross(pa, pb)
//
// A Bellman step (Eq. 12) passes the edges m→b as R, right a leaf, node b's
// totals as own and the extended edges a→b as cross. A merge (Eqs. 13–14)
// passes the right table's rows as R and no own: right's headBase is the mid
// node's own cost n_m(pm), which left already counts. Each row of left folds
// over R's row groups, each group keeping its lowest-index minimum, for one
// min-plus product (minplus.go). compose consumes left's and right's cost
// rows. Cancellation is checked once at entry, so once per Bellman step and
// per merge; row loops run on up to w workers.
func compose(ctx context.Context, left, right *table, r operand, own []float64, cross *edgeMat, st *SearchStats, w int) (*table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	na, nb := len(left.cost), len(r.colOf)
	t := &table{a: left.a, b: right.b, headBase: left.headBase, left: left, right: right,
		cost: make([][]float64, na), argmid: make([][]int32, na)}
	fold := func(pa int, s *rowScratch) {
		for u := range s.m {
			s.m[u], s.argm[u] = math.Inf(1), -1
		}
		for pm, x := range left.cost[pa] {
			if u := r.rowOf[pm]; x < s.m[u] {
				s.m[u], s.argm[u] = x, int32(pm)
			}
		}
	}
	p := minPlusProduct{rows: r.rows, nCols: len(r.rows[0])}
	addProduct(st, p.run(w, na, fold, func(pa int, s *rowScratch) {
		row, arg := make([]float64, nb), make([]int32, nb)
		crow := cross.row(int(cross.rows[pa]))
		for pb, u := range r.colOf {
			c := s.best[u]
			if own != nil {
				c += own[pb]
			}
			row[pb] = c + crow[cross.cols[pb]]
			arg[pb] = s.argm[s.bestU[u]]
		}
		t.cost[pa], t.argmid[pa] = row, arg
	}))
	left.cost, right.cost = nil, nil
	return t, nil
}

// segment runs the Bellman iteration (Eqs. 11–12) over nodes a..b, one row
// per head candidate: the first step a→a+1 as a leaf, which needs no
// minimum (its only predecessor state is p_a itself), then one composition
// per node j = a+2..b. Extended edges inside the segment must originate at a
// (checked by graph.CheckSegmentAssumptions). Row loops run on up to w
// workers.
func segment(ctx context.Context, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, a, b int, st *SearchStats, w int) (*table, error) {
	adj, own := edgesBetween(g, edgeMats, cands, a, a+1), cands[a+1].total
	t := &table{a: a, b: a + 1, headBase: cands[a].total, cost: make([][]float64, len(cands[a].seqs))}
	parallelChunks(w, len(t.cost), func(lo, hi int) {
		for ia := lo; ia < hi; ia++ {
			arow := adj.row(int(adj.rows[ia]))
			row := make([]float64, len(own))
			for ib, x := range own {
				row[ib] = x + arow[adj.cols[ib]]
			}
			t.cost[ia] = row
		}
	})
	for j := a + 2; j <= b; j++ {
		var err error
		t, err = compose(ctx, t, &table{a: j - 1, b: j}, edgesBetween(g, edgeMats, cands, j-1, j).operand(),
			cands[j].total, edgesBetween(g, edgeMats, cands, a, j), st, w)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// edgesBetween returns the sum of the matrices of g's edges from→to or,
// without one, a one-cell zero matrix over the two nodes' candidates: adding
// its +0 is exact for the non-negative costs it meets.
func edgesBetween(g *graph.Graph, edgeMats map[*graph.Edge]*edgeMat, cands []*nodeCands, from, to int) *edgeMat {
	var ms []*edgeMat
	for _, e := range g.Edges {
		if e.Src == from && e.Dst == to {
			ms = append(ms, edgeMats[e])
		}
	}
	if len(ms) == 0 {
		return &edgeMat{rows: make([]int32, len(cands[from].seqs)), cols: make([]int32, len(cands[to].seqs)),
			nr: 1, nc: 1, vals: []float64{0}}
	}
	return sumEdgeMats(ms)
}

// layerInputs is the α-free input of one layer graph's DP, which prepare
// builds and solve reads: one node entry per slot of the within-call node
// dedup (nodeSlots) and one prepared matrix per slot of the edge dedup
// (edgeSlots), with the maps from each node and edge to its slot, plus what
// fills the matrices later: their fraction groups (groups, formed over the
// matrix slots), whose stores hold every filled cell, and the registry
// their calcs read (ot). The node entries, the slot maps and the matrices'
// shapes are read-only once built; the groups' filled rectangles only grow,
// under mu (fillRestrict), and the layer tier shares the entry across
// searches.
type layerInputs struct {
	slots  []*nodeEntry
	slotOf []int // node → slot
	mats   []*prepMat
	matOf  []int // edge index in g.Edges → mat

	mu     sync.Mutex
	groups []*fracGroup
	ot     *cost.OverlapTables
}

// cands returns every node's candidates at α; nodes that share a slot share
// one nodeCands.
func (in *layerInputs) cands(alpha float64) []*nodeCands {
	slot := make([]*nodeCands, len(in.slots))
	for s, e := range in.slots {
		slot[s] = e.withAlpha(alpha)
	}
	cands := make([]*nodeCands, len(in.slotOf))
	for i, s := range in.slotOf {
		cands[i] = slot[s]
	}
	return cands
}

// edgeMats maps every edge of g, the graph in was prepared for or one with
// an equal signature, to its prepared matrix.
func (in *layerInputs) edgeMats(g *graph.Graph) map[*graph.Edge]*prepMat {
	m := make(map[*graph.Edge]*prepMat, len(g.Edges))
	for i, e := range g.Edges {
		m[e] = in.mats[in.matOf[i]]
	}
	return m
}

// search runs one full search of the request's layer graph at the
// configured options (the body of Plan): the plan-tier probe (plancache.go),
// then on a miss the layer-tier probe, prepare on a layer miss, solve, and
// publishing the answer. A masked request (req.Keep) skips the plan tier
// both ways, so a masked answer never serves an unmasked request.
// Cancellation is checked at coarse, value-independent points — between
// pool task pulls, per Bellman step, per merge, between stages — so an
// uncancelled search executes bit-identically to an uncancellable one,
// while a cancelled one returns ctx.Err() promptly and publishes nothing to
// the shared cross-call cache (the cache stays fully usable).
func (o *Optimizer) search(ctx context.Context, req PlanRequest) (*Strategy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, layers := req.Graph, req.Layers
	start := time.Now()
	stats := SearchStats{Workers: o.Workers()}

	// Plan tier: a repeat at any layer count is served from the stored
	// answer; no node pass, edge matrix, layer table or layer pick runs.
	ccache := o.crossCache()
	envSig := o.appendEnvSig(nil)
	unmasked := req.Keep == nil
	planKey := string(o.appendPlanCrossKey(envSig, g))
	if e := ccache.plans.get(planKey); unmasked && e != nil && e.fits(g, o.Cost.Cluster.Bits(), layers) {
		stats.CrossCallPlanHits = 1
		for _, n := range e.sizes {
			stats.CandsTotal += int(n)
		}
		strat := strategyOf(e, layers)
		stats.TotalTime = time.Since(start)
		strat.Stats = stats
		return strat, nil
	}

	// Layer tier: the same graph at another α reuses every node entry and
	// edge matrix, with every cell earlier searches filled, so only solve
	// runs; it fills just the cells its bounds need that none filled.
	layerKey := string(appendLayerCrossKey(envSig, g))
	in := ccache.layers.get(layerKey)
	if in != nil {
		stats.CrossCallNodeHits = len(in.slots)
		stats.CrossCallEdgeHits = len(in.mats)
	} else {
		var err error
		if in, err = o.prepare(ctx, g, &stats); err != nil {
			return nil, err
		}
	}
	stats.NodeCacheHits = len(g.Nodes) - len(in.slots)
	stats.EdgeCacheHits = len(g.Edges) - len(in.mats)
	e, err := o.solve(ctx, g, in, o.Cost.Alpha, layers, req.Keep, &stats)
	if err != nil {
		return nil, err
	}
	ccache.layers.put(layerKey, in)
	if unmasked {
		ccache.plans.put(planKey, e)
	}
	strat := strategyOf(e, layers)
	stats.TotalTime = time.Since(start)
	strat.Stats = stats
	return strat, nil
}

// prepare builds the α-free inputs of g's DP: the node pass, memoized by
// full op signature (nodes with identical structure — repeated linears,
// mirrored norms/residuals — share one evaluation, and unique signatures
// evaluate across the worker pool), then one grouped edge matrix per unique
// edge key, prepared across the pool and grouped by fraction structure on
// one registry. It allocates no matrix cell: solve fills the cells its
// pruned DP reads (fillRestrict) into the groups' stores.
func (o *Optimizer) prepare(ctx context.Context, g *graph.Graph, stats *SearchStats) (*layerInputs, error) {
	tNodes := time.Now()
	sigs := &sigInterner{}
	in := &layerInputs{}
	var slotNode []int
	in.slotOf, slotNode = nodeSlots(g, sigs)
	in.slots = make([]*nodeEntry, len(slotNode))
	nodeW := innerWorkers(stats.Workers, len(slotNode))
	if err := RunTasks(ctx, stats.Workers, len(slotNode), func(s int) {
		in.slots[s] = o.evalNode(g.Nodes[slotNode[s]], nodeW)
	}); err != nil {
		return nil, err
	}
	for s, e := range in.slots {
		if len(e.seqs) == 0 {
			i := slotNode[s]
			return nil, fmt.Errorf("core: node %d (%s) has an empty partition space", i, g.Nodes[i].Name)
		}
		stats.CandidatesEvaluated += len(e.seqs)
	}
	stats.NodeEvals = len(in.slots)
	stats.NodeEvalTime = time.Since(tNodes)

	tEdges := time.Now()
	uniqEdges, matOf := edgeSlots(g, sigs)
	ents := make([]*nodeEntry, len(g.Nodes))
	for i, s := range in.slotOf {
		ents[i] = in.slots[s]
	}
	in.ot = o.newOverlapTables()
	builds, err := o.prepareEdges(ctx, g, uniqEdges, ents, in.ot, stats.Workers)
	if err != nil {
		return nil, err
	}
	in.matOf = matOf
	in.mats = make([]*prepMat, len(builds))
	for i, b := range builds {
		in.mats[i] = b.m
	}
	in.groups = fracGroups(builds)
	stats.EdgeMatsBuilt = len(builds)
	stats.EdgeMatTime = time.Since(tEdges)
	return in, nil
}

// solve runs the α-dependent half of a search on prepared inputs: node
// totals at alpha, the stacking check, the candidate mask keep (nil keeps
// every candidate), the layer DP and the pick of the layer every layer runs
// (layerPlan). It returns the answer as a plan entry.
func (o *Optimizer) solve(ctx context.Context, g *graph.Graph, in *layerInputs, alpha float64, layers int, keep func(int, partition.Seq) bool, stats *SearchStats) (*cachedPlan, error) {
	cands := in.cands(alpha)
	// Stacking: the layer boundary appears as the zero-cost anchor in the
	// next layer, so no subtraction is needed — but the boundary STATE must
	// be shared, which requires the anchor's candidate space to be
	// INDEX-IDENTICAL to the tail node's. A graph that passes is answered
	// with one periodic layer at every layer count, 1 included (layerPlan);
	// any other graph plans a single layer only.
	unstackable := checkStackable(cands[0], cands[len(cands)-1])
	if layers > 1 && unstackable != nil {
		return nil, unstackable
	}
	periodic := unstackable == nil
	mask, err := maskOf(g, cands, keep, periodic)
	if err != nil {
		return nil, err
	}
	// CandsTotal counts the space the DP is exact over: the masked one.
	sizes := make([]int32, len(cands))
	for v, c := range cands {
		sizes[v] = int32(len(c.seqs))
		if mask != nil {
			sizes[v] = int32(len(mask[v]))
		}
		stats.CandsTotal += int(sizes[v])
	}

	// Layer table: built on every plan miss over the candidates the bounds
	// keep (bound.go), and dropped once the layer pick has reconstructed
	// the answer; only the plan entry is published. The edge cells the
	// bounds need are filled on the way and timed as the edge phase.
	tDP := time.Now()
	edgeTime := stats.EdgeMatTime
	edgeMats := in.edgeMats(g)
	kept, subCands, subMats, err := o.prune(ctx, g, in, cands, edgeMats, mask, periodic, stats)
	if err != nil {
		return nil, err
	}
	for v, k := range kept {
		stats.CandsPruned += int(sizes[v]) - len(k)
	}
	t, err := o.layerDP(ctx, g, subCands, subMats, stats)
	if err != nil {
		return nil, err
	}
	stats.DPTime = time.Since(tDP) - (stats.EdgeMatTime - edgeTime)
	tPick := time.Now()
	assign, layerCost := t.layerPlan(len(g.Nodes), periodic)
	for v, ix := range assign {
		assign[v] = kept[v][ix] // back to full-space indices
	}
	stats.StackTime = time.Since(tPick)
	e := planOf(cands, assign, layerCost, periodic)
	copy(e.sizes, sizes)
	return e, nil
}

// maskOf returns, per node, the ascending indices of the candidates keep
// accepts, or nil when keep is nil. On a periodic graph the head and tail
// share one space and run one candidate, so both keep the candidates keep
// accepts at the head and at the tail. A node left with no candidate is an
// error naming it.
func maskOf(g *graph.Graph, cands []*nodeCands, keep func(int, partition.Seq) bool, periodic bool) ([][]int32, error) {
	if keep == nil {
		return nil, nil
	}
	n := len(cands)
	mask := make([][]int32, n)
	for v, c := range cands {
		if periodic && v == n-1 {
			mask[v] = mask[0]
			break
		}
		for i, s := range c.seqs {
			if keep(v, s) && (!periodic || v != 0 || keep(n-1, s)) {
				mask[v] = append(mask[v], int32(i))
			}
		}
		if len(mask[v]) > 0 {
			continue
		}
		if periodic && v == 0 {
			return nil, fmt.Errorf("core: the candidate mask keeps no candidate of the layer head, node 0 (%s), that it also keeps at the tail, node %d (%s)",
				g.Nodes[0].Name, n-1, g.Nodes[n-1].Name)
		}
		return nil, fmt.Errorf("core: the candidate mask keeps no candidate of node %d (%s)", v, g.Nodes[v].Name)
	}
	return mask, nil
}

// checkStackable returns nil when the layer head's candidate space is
// index-identical to the tail's, and otherwise an error naming the
// lengths or the first differing index. Comparing exact binary sequence
// keys pairwise makes the check exact rather than length-only (a same-size
// space with different or reordered sequences would silently stack wrong
// costs).
func checkStackable(head, tail *nodeCands) error {
	if len(head.seqs) != len(tail.seqs) {
		return fmt.Errorf("core: layer head and tail spaces differ (%d vs %d); cannot stack",
			len(head.seqs), len(tail.seqs))
	}
	var hk, tk []byte
	for i := range head.seqs {
		hk = head.seqs[i].AppendBinaryKey(hk[:0])
		tk = tail.seqs[i].AppendBinaryKey(tk[:0])
		if !bytes.Equal(hk, tk) {
			return fmt.Errorf("core: layer head and tail spaces disagree at candidate %d (%v vs %v); cannot stack",
				i, head.seqs[i], tail.seqs[i])
		}
	}
	return nil
}

// nodeSlots is the within-call node dedup that prepare and EstimatePlan
// share: nodes with equal full op signatures (repeated linears, mirrored
// norms/residuals) share one slot. slotOf maps each node to its slot and
// slotNode each slot to its first node.
func nodeSlots(g *graph.Graph, in *sigInterner) (slotOf, slotNode []int) {
	slotOf = make([]int, len(g.Nodes))
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
	return slotOf, slotNode
}

// edgeSlots is the within-call edge dedup that prepare and EstimatePlan
// share: edges with equal edgeKeyOf keys share one matrix.
// uniq lists each slot's first edge and matIdx maps every edge to its slot.
func edgeSlots(g *graph.Graph, in *sigInterner) (uniq []*graph.Edge, matIdx []int) {
	matIdx = make([]int, len(g.Edges))
	byKey := make(map[edgeMatKey]int)
	for i, e := range g.Edges {
		k := edgeKeyOf(in, g, e)
		s, ok := byKey[k]
		if !ok {
			s = len(uniq)
			byKey[k] = s
			uniq = append(uniq, e)
		}
		matIdx[i] = s
	}
	return uniq, matIdx
}

// layerDP runs the DP of one layer over its edge matrices: one Bellman
// chain per segment (segment), each merged into the tables before it in
// segment order with its cross edges (Eqs. 13–14), on stats.Workers
// workers.
func (o *Optimizer) layerDP(ctx context.Context, g *graph.Graph, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, stats *SearchStats) (*table, error) {
	cuts := g.SegmentCuts()
	var acc *table
	for s := 1; s < len(cuts); s++ {
		seg, err := segment(ctx, g, cands, edgeMats, cuts[s-1], cuts[s], stats, stats.Workers)
		if err != nil {
			return nil, err
		}
		stats.SegTablesBuilt++
		if acc == nil {
			acc = seg
			continue
		}
		acc, err = compose(ctx, acc, seg, seg.operand(), nil, edgesBetween(g, edgeMats, cands, acc.a, seg.b), stats, stats.Workers)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// strategyOf assembles the answer from a plan entry — the one a search just
// published, or a plan-tier hit — copying its per-node values into fresh
// slices (the sequences' tokens stay shared with the read-only entry);
// every one of the layers runs the entry's layer.
func strategyOf(e *cachedPlan, layers int) *Strategy {
	strat := &Strategy{
		Seqs:       append([]partition.Seq(nil), e.seqs...),
		Intra:      append([]cost.Intra(nil), e.intra...),
		LayerCost:  e.layerCost,
		TotalCost:  float64(layers) * e.layerCost,
		Layers:     layers,
		SpaceSizes: make([]int, len(e.sizes)),
	}
	for i, n := range e.sizes {
		strat.SpaceSizes[i] = int(n)
	}
	return strat
}

// reconstruct walks back-pointers from head candidate ia and tail candidate
// ib, recording the candidate index of every node in t's range into assign
// (indexed by node id). Adjacent subtables share their boundary node and
// agree on its candidate.
func reconstruct(t *table, ia, ib int32, assign []int32) {
	if t.argmid == nil {
		assign[t.a], assign[t.b] = ia, ib
		return
	}
	im := t.argmid[ia][ib]
	reconstruct(t.left, ia, im, assign)
	reconstruct(t.right, im, ib, assign)
}

// layerPlan picks the layer every stacked layer runs from the whole-layer
// table and reconstructs its n assignments, returning them with the
// layer's cost C(ia, ib). A periodic (stackable) graph takes the diagonal
// minimum a* = argmin_a C(a, a), first minimum winning, as the layer
// a*→a*: its tail hands the next layer's head the state that head starts
// from, so running it L times costs exactly L·C(a*, a*), and no L-layer
// chain of one repeated layer costs less (DESIGN.md §5.32). Any other
// graph takes the free minimum over (head, tail).
func (t *table) layerPlan(n int, periodic bool) (assign []int32, layerCost float64) {
	var ia, ib int32
	if periodic {
		best := math.Inf(1)
		for a, row := range t.cost {
			if c := t.headBase[a] + row[a]; c < best {
				best, ia = c, int32(a)
			}
		}
		ib = ia
	} else {
		ia, ib = t.argMin()
	}
	assign = make([]int32, n)
	reconstruct(t, ia, ib, assign)
	return assign, t.headBase[ia] + t.cost[ia][ib]
}

// argMin returns the witness (ia, ib) attaining the table's minimum over
// (p_a, p_b) of headBase[p_a] + cost[p_a][p_b], the lexicographically
// lowest one on a tie.
func (t *table) argMin() (int32, int32) {
	best := math.Inf(1)
	var bi, bj int32
	for ia, row := range t.cost {
		hb := t.headBase[ia]
		for ib, v := range row {
			if c := hb + v; c < best {
				best, bi, bj = c, int32(ia), int32(ib)
			}
		}
	}
	return bi, bj
}
