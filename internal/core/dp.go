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
	// so we first fold C over each group, then run one min-plus product of
	// the folded rows against the edge's column groups (minplus.go).
	for j := a + 2; j <= b; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		totals := cands[j].total
		nj := len(totals)
		nprev := len(cands[j-1].seqs)
		em := sumEdges(j, j-1)
		eExt := eExts[j-a-2]
		next := make([][]float64, t.nCls)
		args := make([][]int32, t.nCls)
		// colGroup maps each p_j to its column group; without an edge every
		// p_j shares group 0.
		var colGroup []int32
		if em != nil {
			colGroup = em.cols
		} else {
			colGroup = make([]int32, nj)
		}
		// fill writes class r's row: the per-column-group minima best (with
		// p_{j-1} witnesses argm[bestU[cg]]) plus node j's cost and the
		// extended edge a→j.
		fill := func(r int, best []float64, bestU []int32, argm []int32) {
			row := make([]float64, nj)
			arow := make([]int32, nj)
			var extRow []float64
			if eExt != nil {
				extRow = eExt.row(int(eExt.rows[reps[r]]))
			}
			for ij := 0; ij < nj; ij++ {
				cg := colGroup[ij]
				c := best[cg] + totals[ij]
				if extRow != nil {
					c += extRow[eExt.cols[ij]]
				}
				row[ij] = c
				arow[ij] = argm[bestU[cg]]
			}
			next[r] = row
			args[r] = arow
		}

		if em == nil {
			// No edge: one global min serves every p_j.
			parallelChunks(w, t.nCls, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					best := math.Inf(1)
					bestK := int32(-1)
					for k, v := range cur[r] {
						if v < best {
							best = v
							bestK = int32(k)
						}
					}
					fill(r, []float64{best}, []int32{0}, []int32{bestK})
				}
			})
			cur = next
			t.chainArgs = append(t.chainArgs, args)
			continue
		}

		// The edge's row groups, shared (read-only) across classes and
		// worker bands.
		erows := make([][]float64, em.numRowGroups())
		for u := range erows {
			erows[u] = em.row(u)
		}
		// fold reduces class r's DP row over the edge's row groups.
		fold := func(r int, s *classScratch) {
			m, argm := s.m, s.argm
			for u := range m {
				m[u] = math.Inf(1)
				argm[u] = -1
			}
			prevRow := cur[r]
			for k := 0; k < nprev; k++ {
				u := em.rows[k]
				if prevRow[k] < m[u] {
					m[u] = prevRow[k]
					argm[u] = int32(k)
				}
			}
		}
		p := minPlusProduct{rows: erows, nCols: em.numColGroups()}
		addProduct(st, p.run(w, t.nCls, fold, func(r int, s *classScratch) {
			fill(r, s.best, s.bestU, s.argm)
		}))
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
//	out = hbL[pa] + min_pm { Lc[rL][pm] + Rc[rm(pm)][pb] }
//
// because the right table's headBase hbR[pm] IS the mid node's own cost
// n_m(pm), which L already counts. So the min folds in two exact stages:
// first over the mid candidates of each right class (W[rm] = min over pm in
// rm of Lc), then over right classes per column (one min-plus product). A
// cross edge refines the OUTPUT classes but never moves the argmin, so
// refined classes share argmid rows.
// Cancellation is checked once at entry — one merge is a single bounded
// scan pass, so per-merge granularity keeps a cancelled layer DP prompt
// without touching the kernel. Class loops run on up to w workers.
func (o *Optimizer) merge(ctx context.Context, left, right *table, cross *edgeMat, st *SearchStats, w int) (*table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nm := len(right.headBase)
	nb := len(right.cost[0])
	nL := left.nCls
	base := make([][]float64, nL)
	argPM := make([][]int32, nL)
	// fold reduces left class rL's row over the mid candidates of each right
	// class: W[rm] = min over pm in rm of Lc, witness argW[rm].
	fold := func(rL int, s *classScratch) {
		W, argW := s.m, s.argm
		for u := range W {
			W[u] = math.Inf(1)
			argW[u] = -1
		}
		lrow := left.cost[rL]
		for pm := 0; pm < nm; pm++ {
			rm := right.rowCls[pm]
			if v := lrow[pm]; v < W[rm] {
				W[rm] = v
				argW[rm] = int32(pm)
			}
		}
	}
	p := minPlusProduct{rows: right.cost, nCols: nb}
	addProduct(st, p.run(w, nL, fold, func(rL int, s *classScratch) {
		base[rL] = s.best
		s.best = make([]float64, nb)
		arow := make([]int32, nb)
		for pb := range arow {
			arow[pb] = s.argm[s.bestU[pb]]
		}
		argPM[rL] = arow
	}))

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

// layerInputs is the α-free input of one layer graph's DP, which prepare
// builds and solve reads: one node entry per slot of the within-call node
// dedup (nodeSlots) and one grouped matrix per slot of the edge dedup
// (edgeSlots), with the maps from each node and edge to its slot, plus what
// fills the matrices later: their fraction groups (groups, formed over the
// matrix slots) and the registry their calcs read (ot). The node entries,
// the slot maps and the matrices' shapes are read-only once built; the
// matrices' cells and the groups' filled rectangles only grow, under mu
// (fillRestrict), and the layer tier shares the entry across searches.
type layerInputs struct {
	slots  []*nodeEntry
	slotOf []int // node → slot
	mats   []*edgeMat
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
// an equal signature, to its matrix.
func (in *layerInputs) edgeMats(g *graph.Graph) map[*graph.Edge]*edgeMat {
	m := make(map[*graph.Edge]*edgeMat, len(g.Edges))
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
	if layers < 1 {
		return nil, fmt.Errorf("core: layers must be ≥ 1, got %d", layers)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckSegmentAssumptions(); err != nil {
		return nil, err
	}
	if len(g.Nodes) < 2 {
		return nil, fmt.Errorf("core: graph needs at least two nodes")
	}
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
// one registry. It fills no matrix cell: solve fills the cells its pruned DP
// reads (fillRestrict).
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
	in.mats = make([]*edgeMat, len(builds))
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
	// keep (bound.go), in the shape planned from the full space, and
	// dropped once the layer pick has reconstructed the answer; only the
	// plan entry is published. The edge cells the bounds need are filled on
	// the way and timed as the edge phase.
	tDP := time.Now()
	edgeTime := stats.EdgeMatTime
	edgeMats := in.edgeMats(g)
	shape := layerShape(g, cands, edgeMats)
	kept, subCands, subMats, err := o.prune(ctx, g, in, shape, cands, edgeMats, mask, periodic, stats)
	if err != nil {
		return nil, err
	}
	for v, k := range kept {
		stats.CandsPruned += int(sizes[v]) - len(k)
	}
	t, err := o.layerDP(ctx, g, shape, subCands, subMats, stats)
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

// layerDP runs the DP of one layer over its edge matrices: the per-segment
// tables in the planned shape (one segPlan per segment, layerShape), then
// left-to-right merging with cross edges (Eqs. 13–14), on stats.Workers
// workers.
func (o *Optimizer) layerDP(ctx context.Context, g *graph.Graph, shape []*segPlan, cands []*nodeCands, edgeMats map[*graph.Edge]*edgeMat, stats *SearchStats) (*table, error) {
	var acc *table
	for _, p := range shape {
		seg, err := o.execSegPlan(ctx, p, g, cands, edgeMats, stats, stats.Workers)
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
		acc, err = o.merge(ctx, acc, seg, cross, stats, stats.Workers)
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

// reconstruct walks back-pointers from head candidate ia and tail candidate
// ib, recording the candidate index of every node in t's range into assign
// (indexed by node id). Adjacent subtables share their boundary node and
// agree on its candidate. All back-pointer rows are indexed by the head
// candidate's CLASS — valid for every member.
func reconstruct(t *table, ia, ib int32, assign []int32) {
	if t.argmid != nil {
		im := t.argmid[t.rowCls[ia]][ib]
		reconstruct(t.left, ia, im, assign)
		reconstruct(t.right, im, ib, assign)
		return
	}
	// Chain segment: walk j = b .. a+2, then the implicit first step.
	cls := t.rowCls[ia]
	cur := ib
	for j := t.b; j > t.a+1; j-- {
		assign[j] = cur
		cur = t.chainArgs[j-t.a-2][cls][cur]
	}
	assign[t.a+1] = cur
	assign[t.a] = ia
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
		for a, r := range t.rowCls {
			if c := t.headBase[a] + t.cost[r][a]; c < best {
				best, ia = c, int32(a)
			}
		}
		ib = ia
	} else {
		ia, ib = t.argMin()
	}
	assign = make([]int32, n)
	reconstruct(t, ia, ib, assign)
	return assign, t.headBase[ia] + t.cost[t.rowCls[ia]][ib]
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

// argMin returns the witness (ia, ib) attaining the table's minimum over
// (p_a, p_b) of headBase[p_a] + cost[rowCls[p_a]][p_b], the
// lexicographically lowest one on a tie.
func (t *table) argMin() (int32, int32) {
	minHB, argHB := t.minHeadBase()
	best := math.Inf(1)
	var bi, bj int32
	for r := 0; r < t.nCls; r++ {
		hb, ia := minHB[r], argHB[r]
		for ib, v := range t.cost[r] {
			if c := hb + v; c < best || c == best && (ia < bi || ia == bi && int32(ib) < bj) {
				best = c
				bi, bj = ia, int32(ib)
			}
		}
	}
	return bi, bj
}
