package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
)

// treeMatchesChain is the tree-vs-chain reference. It builds every node's
// candidates and every edge matrix the way Exhaustive does (oracle.go), and
// then compares segmentTable (the
// production tree) with segmentDP (the plain Bellman chain) over each
// segment of g, cell by cell on the expanded (head × tail) matrix. The tree
// evaluates the path sums under a different IEEE parenthesization (treedp.go
// header), so cells may differ in the last ulps but never by more than 1e-12
// relative. Returns the in-segment merges the tree executed.
func treeMatchesChain(t *testing.T, label string, o *Optimizer, g *graph.Graph) int {
	t.Helper()
	w := o.Workers()
	cands := make([]*nodeCands, len(g.Nodes))
	for i, op := range g.Nodes {
		cands[i] = o.evalNode(op, w)
	}
	ctx := context.Background()
	mats, _, err := o.buildEdgeMats(ctx, g, g.Edges, cands, o.newOverlapTables(), w)
	if err != nil {
		t.Fatal(err)
	}
	edgeMats := make(map[*graph.Edge]*edgeMat)
	for i, e := range g.Edges {
		edgeMats[e] = mats[i]
	}
	var st SearchStats
	cuts := g.SegmentCuts()
	for s := 0; s+1 < len(cuts); s++ {
		a, b := cuts[s], cuts[s+1]
		tree, err := o.segmentTable(ctx, g, cands, edgeMats, a, b, &st, w)
		if err != nil {
			t.Fatalf("%s: tree [%d,%d]: %v", label, a, b, err)
		}
		chain, err := o.segmentDP(ctx, g, cands, edgeMats, a, b, nil, w)
		if err != nil {
			t.Fatalf("%s: chain [%d,%d]: %v", label, a, b, err)
		}
		for ia := range cands[a].seqs {
			for ib := range cands[b].seqs {
				x := tree.headBase[ia] + tree.cost[tree.rowCls[ia]][ib]
				y := chain.headBase[ia] + chain.cost[chain.rowCls[ia]][ib]
				if diff := math.Abs(x - y); diff > 1e-12*math.Abs(y) {
					t.Fatalf("%s: segment [%d,%d] cell (%d,%d): tree %v vs chain %v",
						label, a, b, ia, ib, x, y)
				}
			}
		}
	}
	return st.DPTreeMerges
}

// FuzzTreeChainEquivalence decodes a chain (deltaGraph's shape family: odd
// and even lengths including 1 and 2, with and without an extended edge), a
// layer count, α from deltaAlphas and a device count. The production search
// must BIT-IDENTICALLY match the uncached reference (referencePlan), which
// plans the same trees; that covers the α = 0 ties and the class-0 probe
// reuse of the Bellman steps. Every segment's tree table must match the
// Bellman chain to ulp precision (treeMatchesChain).
func FuzzTreeChainEquivalence(f *testing.F) {
	// Layout: b, m, k, length-1, layers-1, α, devices, then (length ≥ 2) an
	// ext flag (even = ext edge) and its target, then one byte that chose a
	// beam width for the deleted approximate search (read and ignored, so
	// the seeds decode the same chains as before) — each byte taken modulo
	// its range, missing bytes read as zero.
	f.Add([]byte{})                                // minimal chain
	f.Add([]byte{0, 1, 2, 0})                      // length 1
	f.Add([]byte{1, 2, 0, 1, 3})                   // length 2, ext edge
	f.Add([]byte{0, 0, 1, 4, 1, 2, 3, 0, 1})       // length 5, ext edge, α = 0, 2 layers
	f.Add([]byte{2, 1, 2, 7, 3, 2, 1, 0, 255, 6})  // length 8, ext edge, α = 0, 8 devices
	f.Add([]byte{1, 1, 0, 6, 0, 0, 0, 0, 0, 0, 1}) // length 7, ext edge at 2
	f.Add([]byte{2, 1, 0, 5, 1, 1, 1, 1, 2, 2})    // length 6, 2 layers, 8 devices
	f.Add([]byte{0, 0, 0, 4, 1, 2, 0, 1, 1})       // α = 0 ties
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		p := deltaParams{
			b:        2 << r.intn(2),
			m:        4 << r.intn(2),
			k:        4 << r.intn(2),
			length:   1 + r.intn(8),
			layers:   1 + r.intn(3),
			alphaIdx: r.intn(len(deltaAlphas)),
			devices:  []int{4, 8, 2}[r.intn(3)],
		}
		if p.length >= 2 && r.next()&1 == 0 {
			p.ext = 2 + r.intn(p.length-1)
		}
		r.next() // the ignored beam byte
		g := deltaGraph(t, p)
		per := 4
		if p.devices < per {
			per = p.devices
		}
		mdl := cost.NewModel(device.MustCluster(p.devices, per, device.V100Profile()))
		mdl.Alpha = deltaAlphas[p.alphaIdx]

		tree := NewOptimizer(mdl)
		tree.Cache = NewSearchCache()
		got, err := tree.Plan(context.Background(), PlanRequest{Graph: g, Layers: p.layers})
		if err != nil {
			t.Fatalf("production: %v", err)
		}

		slow, err := referencePlan(NewOptimizer(mdl), g, p.layers)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		sameStrategy(t, "tree-vs-reference", got, slow)
		if got.Stats.DPTreeMerges != slow.Stats.DPTreeMerges {
			t.Fatalf("production and reference planned different trees: %d vs %d merges",
				got.Stats.DPTreeMerges, slow.Stats.DPTreeMerges)
		}

		treeMatchesChain(t, "tree-vs-chain", tree, g)
	})
}

// TestTreeDPActivatesOnModelBlock pins that the planner actually chooses
// merges on a real transformer block — the work estimate must favor splits
// on every paper model even at small scales — that production and the
// uncached reference agree bit for bit, and that every segment's tree
// table still matches the Bellman chain (the fuzz above covers random
// synthetic shapes where the planner may legitimately keep the chain).
func TestTreeDPActivatesOnModelBlock(t *testing.T) {
	g, err := model.BuildBlock(model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	mdl := cost.NewModel(device.MustCluster(8, 4, device.V100Profile()))
	mdl.Alpha = 1e-12

	tree := NewOptimizer(mdl)
	tree.Cache = NewSearchCache()
	got, err := tree.Plan(context.Background(), PlanRequest{Graph: g, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.DPTreeMerges == 0 {
		t.Fatal("planner kept the chain on a full OPT-175B block; expected at least one merge")
	}

	slow, err := referencePlan(NewOptimizer(mdl), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameStrategy(t, "opt175b-block-reference", got, slow)
	if slow.Stats.DPTreeMerges != got.Stats.DPTreeMerges {
		t.Fatalf("reference planned %d merges, production %d", slow.Stats.DPTreeMerges, got.Stats.DPTreeMerges)
	}

	if merges := treeMatchesChain(t, "opt175b-block", tree, g); merges != got.Stats.DPTreeMerges {
		t.Fatalf("reference build executed %d merges, the search %d", merges, got.Stats.DPTreeMerges)
	}
}
